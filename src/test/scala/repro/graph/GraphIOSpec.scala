package repro.graph

import repro.{Oracle, SparkSpec}
import repro.bipartite.SynthBipartite
import org.apache.spark.sql.functions._

/** DataFrame ↔ local graph round trips and DuckDB-checked degree queries. */
class GraphIOSpec extends SparkSpec {

  private lazy val g  = SynthBipartite.generate(
    SynthBipartite.youtubeS.copy(nU = 200, nV = 90, blocks = 8, noiseEdges = 300))
  private lazy val df = GraphIO.toEdgeDF(spark, g).cache()

  test("toEdgeDF emits every edge exactly once with both attributes") {
    assert(df.count() == g.numEdges)
    assert(df.select("u", "v").distinct().count() == g.numEdges)
    val row = df.where(col("u") === 0).head()
    assert(row.getInt(2) == g.attrU(0))
  }

  private lazy val edgeSet = (for { u <- 0 until g.nU; v <- g.adjU(u) } yield (u.toLong, v.toLong)).toSet

  test("toLocal round-trips the graph (vertices with edges)") {
    // The doubled table checks that repeated rows collapse to one edge.
    for (table <- Seq(df, df.union(df))) {
      val loc = GraphIO.toLocal(table)
      val g2  = loc.graph
      // Same edge set under the id mappings, each edge once on both sides.
      val e2 = (for { u <- 0 until g2.nU; v <- g2.adjU(u) } yield (loc.uIds(u), loc.vIds(v))).toSet
      assert(edgeSet == e2)
      assert(g2.numEdges == g.numEdges && g2.adjV.map(_.length.toLong).sum == g.numEdges)
      for (v <- 0 until g2.nV) assert(g2.adjV(v).toSeq == (0 until g2.nU).filter(g2.hasEdge(_, v)))
      for (u <- 0 until g2.nU) assert(g2.attrU(u) == g.attrU(loc.uIds(u).toInt))
      for (v <- 0 until g2.nV) assert(g2.attrV(v) == g.attrV(loc.vIds(v).toInt))
    }
  }

  test("collectAtMost returns every row up to maxRows and None above it") {
    val n = g.numEdges
    // All rows in one of four partitions: that partition is over its share
    // of maxRows, so its rows come in a second job.
    for (table <- Seq(df, df.repartition(4, lit(0)))) {
      assert(GraphIO.collectAtMost(table, n - 1).isEmpty)
      assert(GraphIO.collectAtMost(table, 0).isEmpty)
      for (maxRows <- Seq(n, n + 1, Long.MaxValue)) {
        val rows = GraphIO.collectAtMost(table, maxRows).get
        assert(rows.size == n)
        assert(rows.u.indices.map(i => (rows.u(i), rows.v(i))).toSet == edgeSet)
        assert(rows.u.indices.forall(i => rows.uval(i) == g.attrU(rows.u(i).toInt) && rows.vval(i) == g.attrV(rows.v(i).toInt)))
      }
    }
    val empty = spark.createDataFrame(spark.sparkContext.emptyRDD[org.apache.spark.sql.Row], GraphIO.edgeSchema)
    assert(GraphIO.collectAtMost(empty, 0).get.size == 0)
  }

  private def edgeRows(rows: (Long, Long, Int, Int)*) =
    spark.createDataFrame(spark.sparkContext.parallelize(
      rows.map { case (u, v, ua, va) => org.apache.spark.sql.Row(u, v, ua, va) }, 1), GraphIO.edgeSchema)

  test("toLocal rejects a vertex whose rows disagree on its attribute") {
    val e = intercept[IllegalArgumentException](
      GraphIO.toLocal(edgeRows((1L, 10L, 0, 1), (1L, 11L, 1, 0), (2L, 10L, 1, 1))))
    assert(e.getMessage.contains("U vertex 1"))
    val f = intercept[IllegalArgumentException](
      GraphIO.toLocal(edgeRows((1L, 10L, 0, 1), (2L, 10L, 1, 0))))
    assert(f.getMessage.contains("V vertex 10"))
  }

  test("toLocal rejects attribute ids outside the declared range") {
    val e = intercept[IllegalArgumentException](
      GraphIO.toLocal(edgeRows((1L, 10L, 0, 1), (2L, 11L, 1, 2)), nAttrU = 2, nAttrV = 2))
    assert(e.getMessage.contains("V vertex 11"))
    val f = intercept[IllegalArgumentException](
      GraphIO.toLocal(edgeRows((7L, 10L, 2, 0)), nAttrU = 2, nAttrV = 2))
    assert(f.getMessage.contains("U vertex 7"))
    assert(GraphIO.toLocal(edgeRows((7L, 10L, 2, 0)), nAttrU = 3, nAttrV = 2).graph.attrU.toSeq == Seq(2))
  }

  test("attribute degrees (Def 7): Spark aggregation matches DuckDB") {
    val sparkDf = df.groupBy("u", "vval").agg(count(lit(1)).as("ad"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT u, vval, count(*) AS ad FROM edges GROUP BY u, vval",
      "edges" -> df)
  }

  test("minimum attribute degree per U vertex matches DuckDB") {
    val sparkDf = df.groupBy("u", "vval").agg(count(lit(1)).as("c"))
      .groupBy("u").agg(min(col("c")).as("min_ad"))
    Oracle.assertEquivalent(sparkDf,
      """SELECT u, min(c) AS min_ad
        |FROM (SELECT u, vval, count(*) AS c FROM edges GROUP BY u, vval)
        |GROUP BY u""".stripMargin,
      "edges" -> df)
  }

  test("V-side degrees match DuckDB and the local graph") {
    val sparkDf = df.groupBy("v").agg(count(lit(1)).as("deg"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT v, count(*) AS deg FROM edges GROUP BY v",
      "edges" -> df)
    val degs = sparkDf.collect().map(r => r.getLong(0).toInt -> r.getLong(1).toInt).toMap
    for ((v, d) <- degs) assert(g.degV(v) == d)
  }

  test("attribute class totals per side match DuckDB") {
    val sparkDf = df.select(col("v"), col("vval")).distinct()
      .groupBy("vval").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT vval, count(*) AS n FROM (SELECT DISTINCT v, vval FROM edges) GROUP BY vval",
      "edges" -> df)
  }

  test("local attrDeg agrees with the DataFrame aggregation") {
    val m = df.groupBy("u", "vval").agg(count(lit(1)).as("c")).collect()
      .map(r => (r.getLong(0).toInt, r.getInt(1)) -> r.getLong(2).toInt).toMap
    for (u <- 0 until g.nU if g.degU(u) > 0; a <- 0 until g.nAttrV) {
      assert(g.attrDegU(u, a) == m.getOrElse((u, a), 0), s"u=$u a=$a")
    }
  }

  test("SortedOps primitives") {
    import SortedOps._
    assert(intersect(Array(1, 3, 5, 7), Array(2, 3, 5, 8)).toSeq == Seq(3, 5))
    assert(intersectSize(Array(1, 3, 5, 7), Array(2, 3, 5, 8)) == 2)
    assert(intersect(Array.empty[Int], Array(1)).isEmpty)
    assert(isSubset(Array(2, 5), Array(1, 2, 3, 5)))
    assert(!isSubset(Array(2, 6), Array(1, 2, 3, 5)))
    assert(isSubset(Array.empty[Int], Array.empty[Int]))
  }

  test("BipartiteGraph transpose and restrict") {
    val t = g.transpose
    assert(t.nU == g.nV && t.nV == g.nU)
    for (u <- 0 until math.min(20, g.nU); v <- g.adjU(u)) assert(t.hasEdge(v, u))
    val aliveU = Array.tabulate(g.nU)(_ % 2 == 0)
    val aliveV = Array.tabulate(g.nV)(_ % 3 != 0)
    val r = g.restrict(aliveU, aliveV)
    for (u <- 0 until g.nU) {
      if (!aliveU(u)) assert(r.adjU(u).isEmpty)
      else assert(r.adjU(u).toSeq == g.adjU(u).filter(aliveV(_)).toSeq)
    }
  }

  test("commonNeighbors of empty set is the whole other side") {
    assert(g.commonNeighborsOfV(Nil).length == g.nU)
    assert(g.commonNeighborsOfU(Nil).length == g.nV)
  }
}
