package repro.spark

import repro.{Oracle, SparkSpec}
import repro.bipartite.SynthBipartite
import repro.core._
import repro.graph.GraphIO
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._

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
    val got = resultSet(DistEnum.bsfbc(spark, df, pb))
    val exp = BiFair.enumerate(g, pb).map(_.canonical).toSet
    assert(got == exp, s"${got.size} vs ${exp.size}")
    assert(got.nonEmpty, "trivial test: no BSFBC found — regenerate config")
  }

  /** Bound 0, a bound that stops the distributed peel after its first
    * round, and the default bound (the whole table at once), for SSFBC at
    * `p` and BSFBC at `pb`.
    */
  private val pb = FairParams(2, 2, 2)
  private def bounds(bi: Boolean): Seq[(String, Long)] = {
    val (q, n) = (if (bi) pb else p, g.numEdges)
    val core   = DistFCore.coreAtMost(df, q.alpha, q.beta, bi, 2, 2, 0L).count()
    val first  = DistFCore.coreAtMost(df, q.alpha, q.beta, bi, 2, 2, n - 1).count()
    assert(core < first && first < n, s"bi=$bi: the peel must take more than one round ($n → $first → … → $core)")
    Seq("0" -> 0L, s"$first" -> first, "default" -> Long.MaxValue)
  }

  test("SSFBC and BSFBC equal local enumeration at bound 0, mid-peel and the default bound") {
    for (bi <- Seq(false, true); (name, bound) <- bounds(bi)) {
      val q   = if (bi) pb else p
      val exp = (if (bi) BiFair.enumerate(g, q) else FairBCEMpp.enumerate(g, q)).map(_.canonical).toSet
      val got = resultSet(
        if (name == "default") (if (bi) DistEnum.bsfbc(spark, df, q) else DistEnum.ssfbc(spark, df, q))
        else DistEnum.enumerate(spark, df, q, VertexOrdering.DegOrd, bi, 2, 2, bound))
      assert(got == exp, s"bi=$bi bound=$name: ${got.size} vs ${exp.size}")
    }
  }

  test("the searched graph is the local CFCore/BCFCore graph at every bound") {
    // Peeling any superset of the fair core reaches the same core, so the
    // driver's graph must not depend on where the distributed peel stopped.
    for (bi <- Seq(false, true); (name, bound) <- bounds(bi)) {
      val q = if (bi) pb else p
      val c = if (bi) CFCore.biPruned(g, q.alpha, q.beta) else CFCore.pruned(g, q.alpha, q.beta)
      val (h, uIds, vIds) = DistEnum.prune(df, q, bi, 2, 2, bound)
      val sameIds = uIds.sameElements(c.uIds.map(_.toLong)) && vIds.sameElements(c.vIds.map(_.toLong))
      assert(sameIds, s"bi=$bi bound=$name: ${uIds.length}×${vIds.length} vs ${c.uIds.length}×${c.vIds.length}")
      val sameEdges = h.adjU.map(_.toSeq).toSeq == c.graph.adjU.map(_.toSeq).toSeq
      assert(sameEdges, s"bi=$bi bound=$name")
      assert(h.nU > 0, s"trivial test: bi=$bi pruned everything")
    }
  }

  test("the default bound collects a small table in one job, with no DistFCore round") {
    val sc   = spark.sparkContext
    val tags = new java.util.concurrent.ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("repro.test"))).foreach(tags.add)
    }
    sc.addSparkListener(listener)
    try {
      df.count()
      sc.setLocalProperty("repro.test", "ssfbc")
      DistEnum.ssfbc(spark, df, p)
      sc.setLocalProperty("repro.test", "bsfbc")
      DistEnum.bsfbc(spark, df, pb)
      // Listener events arrive in order: once the marker job is seen, so
      // are all the jobs before it.
      sc.setLocalProperty("repro.test", "marker")
      sc.parallelize(Seq(1), 1).count()
      eventually(timeout(30.seconds))(assert(tags.contains("marker")))
      val perCall = scala.jdk.CollectionConverters.IteratorHasAsScala(tags.iterator).asScala.toSeq
        .groupBy(identity).map { case (k, v) => k -> v.size }
      assert(perCall == Map("ssfbc" -> 1, "bsfbc" -> 1, "marker" -> 1))
    } finally {
      sc.setLocalProperty("repro.test", null)
      sc.removeSparkListener(listener)
    }
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
