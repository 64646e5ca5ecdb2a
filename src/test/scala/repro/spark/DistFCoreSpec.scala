package repro.spark

import repro.{Oracle, SparkSpec}
import repro.bipartite.SynthBipartite
import repro.core.FCore
import repro.graph.GraphIO
import org.apache.spark.sql.functions._

/** Distributed fair-core pruning vs the sequential peel, plus DuckDB
  * checks of the per-round aggregations.
  */
class DistFCoreSpec extends SparkSpec {

  private def edgeSet(df: org.apache.spark.sql.DataFrame): Set[(Long, Long)] =
    df.select("u", "v").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  private def localPrunedEdges(g: repro.graph.BipartiteGraph, alive: FCore.Alive): Set[(Long, Long)] =
    (for { u <- 0 until g.nU if alive.u(u); v <- g.adjU(u) if alive.v(v) } yield (u.toLong, v.toLong)).toSet

  test("DistFCore.fairCore equals the sequential FCore fixpoint") {
    for (seed <- Seq(1L, 2L); (a, b) <- Seq((2, 2), (3, 2), (2, 3))) {
      val g  = SynthBipartite.generate(SynthBipartite.youtubeS.copy(
        nU = 300, nV = 140, blocks = 10, noiseEdges = 600, seed = seed))
      val df = GraphIO.toEdgeDF(spark, g)
      val got = edgeSet(DistFCore.fairCore(df, a, b, g.nAttrV))
      val exp = localPrunedEdges(g, FCore.fairCore(g, a, b))
      assert(got == exp, s"seed=$seed α=$a β=$b: ${got.size} vs ${exp.size} edges")
    }
  }

  test("DistFCore.biFairCore equals the sequential BFCore fixpoint") {
    for (seed <- Seq(3L, 4L); (a, b) <- Seq((1, 2), (2, 2))) {
      val g  = SynthBipartite.generate(SynthBipartite.youtubeS.copy(
        nU = 300, nV = 140, blocks = 10, noiseEdges = 600, seed = seed))
      val df = GraphIO.toEdgeDF(spark, g)
      val got = edgeSet(DistFCore.biFairCore(df, a, b, g.nAttrU, g.nAttrV))
      val exp = localPrunedEdges(g, FCore.biFairCore(g, a, b))
      assert(got == exp, s"seed=$seed α=$a β=$b")
    }
  }

  test("pruned graph satisfies the core conditions (checked via DuckDB)") {
    val g  = SynthBipartite.generate(SynthBipartite.youtubeS.copy(
      nU = 250, nV = 120, blocks = 8, noiseEdges = 500, seed = 7L))
    val (a, b) = (2, 2)
    val pruned = DistFCore.fairCore(GraphIO.toEdgeDF(spark, g), a, b, g.nAttrV).cache()

    // Spark-side violation queries must agree with DuckDB and be empty.
    val badU = pruned.groupBy("u", "vval").agg(count(lit(1)).as("c"))
      .groupBy("u").agg(min("c").as("mc"), countDistinct("vval").as("nc"))
      .where(col("mc") < b || col("nc") < g.nAttrV).select("u")
    Oracle.assertEquivalent(badU,
      s"""SELECT u FROM (
         |  SELECT u, min(c) AS mc, count(DISTINCT vval) AS nc
         |  FROM (SELECT u, vval, count(*) AS c FROM pruned GROUP BY u, vval)
         |  GROUP BY u
         |) WHERE mc < $b OR nc < ${g.nAttrV}""".stripMargin,
      "pruned" -> pruned)
    assert(badU.count() == 0)

    val badV = pruned.groupBy("v").agg(count(lit(1)).as("c")).where(col("c") < a).select("v")
    Oracle.assertEquivalent(badV,
      s"SELECT v FROM (SELECT v, count(*) AS c FROM pruned GROUP BY v) WHERE c < $a",
      "pruned" -> pruned)
    assert(badV.count() == 0)
  }

  test("pruning is monotone in alpha and beta") {
    val g  = SynthBipartite.generate(SynthBipartite.youtubeS.copy(
      nU = 250, nV = 120, blocks = 8, noiseEdges = 500, seed = 9L))
    val df = GraphIO.toEdgeDF(spark, g)
    val e22 = edgeSet(DistFCore.fairCore(df, 2, 2, 2))
    val e32 = edgeSet(DistFCore.fairCore(df, 3, 2, 2))
    val e23 = edgeSet(DistFCore.fairCore(df, 2, 3, 2))
    assert(e32.subsetOf(e22))
    assert(e23.subsetOf(e22))
  }

  test("reaching maxRounds with violators left fails loudly") {
    // A path u0-v0-u1-v1-…: at α=β=2 each removed end exposes the next, so
    // the peel cascades one vertex per round down to nothing.
    val n     = 5
    val edges = (0 until n).flatMap(i => Seq((i, i), (i + 1, i)))
    val g  = repro.graph.BipartiteGraph.fromEdges(n + 1, n, edges, Array.fill(n + 1)(0), Array.fill(n)(0))
    val df = GraphIO.toEdgeDF(spark, g)
    val e  = intercept[IllegalStateException](DistFCore.fairCore(df, 2, 2, nAttrV = 1, maxRounds = 1))
    assert(e.getMessage.contains("1 rounds"))
    assert(DistFCore.fairCore(df, 2, 2, nAttrV = 1).count() == 0)
  }

  test("maxRounds counts removal rounds exactly") {
    // The same cascading path: u0/u5, v0/v4, u1/u4, v1/v3, u2/u3 — five
    // removal rounds, after which no edge is left.
    val n     = 5
    val edges = (0 until n).flatMap(i => Seq((i, i), (i + 1, i)))
    val g  = repro.graph.BipartiteGraph.fromEdges(n + 1, n, edges, Array.fill(n + 1)(0), Array.fill(n)(0))
    val df = GraphIO.toEdgeDF(spark, g)
    assert(DistFCore.fairCore(df, 2, 2, nAttrV = 1, maxRounds = 5).count() == 0)
    val e = intercept[IllegalStateException](DistFCore.fairCore(df, 2, 2, nAttrV = 1, maxRounds = 4))
    assert(e.getMessage.contains("4 rounds"))
  }

  test("a graph that is already a fair core passes through unchanged") {
    // Complete bipartite K6,6 with balanced attrs survives any small α, β.
    val edges = for { u <- 0 until 6; v <- 0 until 6 } yield (u, v)
    val g = repro.graph.BipartiteGraph.fromEdges(6, 6, edges,
      Array(0, 1, 0, 1, 0, 1), Array(0, 1, 0, 1, 0, 1))
    val df  = GraphIO.toEdgeDF(spark, g)
    assert(edgeSet(DistFCore.fairCore(df, 2, 2, 2)).size == 36)
    assert(edgeSet(DistFCore.biFairCore(df, 2, 2, 2, 2)).size == 36)
  }
}
