package repro.spark

import repro.{Oracle, SparkSpec}
import repro.bipartite.SynthBipartite
import repro.core._
import repro.graph.GraphIO
import org.apache.spark.sql.functions._

/** End-to-end distributed enumeration vs the local algorithms, plus a
  * DuckDB edge-completeness check of the emitted bicliques.
  */
class DistEnumSpec extends SparkSpec {

  private lazy val g = SynthBipartite.generate(SynthBipartite.youtubeS.copy(
    nU = 400, nV = 160, blocks = 14, noiseEdges = 800, seed = 21L))
  private lazy val df = GraphIO.toEdgeDF(spark, g).cache()
  private val p = FairParams(3, 2, 2)

  private def resultSet(res: org.apache.spark.sql.DataFrame): Set[Biclique] =
    res.collect().map { r =>
      Biclique.of(r.getSeq[Long](0).map(_.toInt), r.getSeq[Long](1).map(_.toInt))
    }.toSet

  test("distributed SSFBC (FairBCEM++) equals local enumeration") {
    val got = resultSet(DistEnum.ssfbc(spark, df, p))
    val exp = FairBCEMpp.enumerate(g, p).map(_.canonical).toSet
    assert(got == exp, s"${got.size} vs ${exp.size}")
    assert(got.nonEmpty, "trivial test: no SSFBC found — regenerate config")
  }

  test("distributed SSFBC with IDOrd equals DegOrd") {
    val a = resultSet(DistEnum.ssfbc(spark, df, p, ordering = VertexOrdering.IDOrd))
    val b = resultSet(DistEnum.ssfbc(spark, df, p, ordering = VertexOrdering.DegOrd))
    assert(a == b)
  }

  test("distributed BSFBC equals local BFairBCEM++") {
    val pb  = FairParams(2, 2, 2)
    val got = resultSet(DistEnum.bsfbc(spark, df, pb))
    val exp = BiFair.enumerate(g, pb).map(_.canonical).toSet
    assert(got == exp, s"${got.size} vs ${exp.size}")
    assert(got.nonEmpty, "trivial test: no BSFBC found — regenerate config")
  }

  test("results stay distributed and repeat across actions") {
    val res = DistEnum.ssfbc(spark, df, p)
    assert(res.rdd.getNumPartitions > 1)
    val first = resultSet(res)
    assert(resultSet(res) == first)
    assert(res.count() == first.size)
  }

  test("emitted bicliques are complete subgraphs (DuckDB cross-check)") {
    val res = DistEnum.ssfbc(spark, df, p).limit(50).cache()
    val pairs = res
      .withColumn("bid", monotonically_increasing_id())
      .select(col("bid"), explode(col("l")).as("u"), col("r"))
      .select(col("bid"), col("u"), explode(col("r")).as("v"))
      .cache()
    // Per biclique, every (u, v) pair must be an edge: inner-join count
    // equals pair count, in Spark and in DuckDB.
    val sparkCnt = pairs.join(df.select("u", "v"), Seq("u", "v"))
      .groupBy("bid").agg(count(lit(1)).as("edges_present"))
    Oracle.assertEquivalent(sparkCnt,
      """SELECT p.bid, count(*) AS edges_present
        |FROM pairs p JOIN edges e ON p.u = e.u AND p.v = e.v
        |GROUP BY p.bid""".stripMargin,
      "pairs" -> pairs, "edges" -> df)
    val expected = pairs.groupBy("bid").agg(count(lit(1)).as("np")).collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    val present = sparkCnt.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(expected == present, "some emitted biclique is missing an edge")
  }

  test("DistStats matches the local graph") {
    val s = DistStats.stats(df)
    assert(s.nE == g.numEdges)
    assert(s.nU == (0 until g.nU).count(g.degU(_) > 0).toLong)
    assert(s.nV == (0 until g.nV).count(g.degV(_) > 0).toLong)
    assert(s.density > 0 && s.density < 1)
    assert(DistStats.degreeSummary(df, "u").head().getLong(1) >= 1) // max_deg
  }
}
