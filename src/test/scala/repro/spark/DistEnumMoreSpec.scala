package repro.spark

import repro.SparkSpec
import repro.bipartite.SynthBipartite
import repro.core._
import repro.graph.GraphIO
import org.apache.spark.sql.Row
import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.time.SpanSugar._

/** Broader distributed-vs-local coverage: more datasets, parameter
  * settings, sparse vertex ids, and empty-result cases.
  */
class DistEnumMoreSpec extends SparkSpec with TimeLimits {

  private implicit val signaler: Signaler = ThreadSignaler

  private def resultSet(res: org.apache.spark.sql.DataFrame): Set[Biclique] =
    res.collect().map { r =>
      Biclique.of(r.getSeq[Long](0).map(_.toInt), r.getSeq[Long](1).map(_.toInt))
    }.toSet

  private val configs = Seq(
    SynthBipartite.twitterS.copy(nU = 500, nV = 1200, blocks = 12, noiseEdges = 2500, seed = 31L),
    SynthBipartite.wikicatS.copy(nU = 2000, nV = 400, blocks = 10, noiseEdges = 2500, seed = 32L),
  )

  for (cfg <- configs) {
    test(s"distributed SSFBC equals local on ${cfg.name} (both algorithms)") {
      val g  = SynthBipartite.generate(cfg)
      val df = GraphIO.toEdgeDF(spark, g).cache()
      val p  = FairParams(3, 2, 2)
      val exp = FairBCEMpp.enumerate(g, p).map(_.canonical).toSet
      assert(resultSet(DistEnum.ssfbc(spark, df, p)) == exp)
      assert(FairBCEM.enumerate(g, p).map(_.canonical).toSet == exp)
    }
  }

  test("distributed BSFBC with IDOrd equals local") {
    val cfg = configs.head
    val g   = SynthBipartite.generate(cfg)
    val df  = GraphIO.toEdgeDF(spark, g)
    val p   = FairParams(2, 2, 2)
    val got = resultSet(DistEnum.bsfbc(spark, df, p, ordering = VertexOrdering.IDOrd))
    assert(got == BiFair.enumerate(g, p).map(_.canonical).toSet)
  }

  test("distributed enumeration with sparse original vertex ids") {
    // Shift ids by large offsets; the pipeline must map back faithfully.
    val g  = SynthBipartite.generate(SynthBipartite.youtubeS.copy(nU = 200, nV = 100, blocks = 8, noiseEdges = 400))
    import org.apache.spark.sql.functions._
    val df = GraphIO.toEdgeDF(spark, g)
      .withColumn("u", col("u") * 1000 + 7)
      .withColumn("v", col("v") * 500 + 3)
    val p   = FairParams(3, 2, 2)
    val got = DistEnum.ssfbc(spark, df, p).collect().map { r =>
      Biclique.of(r.getSeq[Long](0).map(x => ((x - 7) / 1000).toInt),
                  r.getSeq[Long](1).map(x => ((x - 3) / 500).toInt))
    }.toSet
    assert(got == FairBCEMpp.enumerate(g, p).map(_.canonical).toSet)
  }

  test("impossible thresholds give an empty DataFrame, not a failure") {
    val g  = SynthBipartite.generate(SynthBipartite.youtubeS.copy(nU = 150, nV = 80, blocks = 5, noiseEdges = 300))
    val df = GraphIO.toEdgeDF(spark, g)
    assert(DistEnum.ssfbc(spark, df, FairParams(500, 2, 2)).count() == 0)
    assert(DistEnum.bsfbc(spark, df, FairParams(500, 500, 2)).count() == 0)
    // Bound 0: the distributed peel empties the table before the collect.
    assert(DistEnum.enumerate(spark, df, FairParams(500, 2, 2), VertexOrdering.DegOrd, bi = false, 2, 2, 0L).count() == 0)
    assert(DistEnum.enumerate(spark, df, FairParams(500, 500, 2), VertexOrdering.DegOrd, bi = true, 2, 2, 0L).count() == 0)
  }

  test("an empty edge table gives empty frames without hanging") {
    // DistFCore waits on a row count observed on each round's action; a
    // zero-row local relation and a zero-partition RDD must still report.
    val empties = Seq(
      "local" -> spark.createDataFrame(java.util.Collections.emptyList[Row](), GraphIO.edgeSchema),
      "rdd"   -> spark.createDataFrame(spark.sparkContext.emptyRDD[Row], GraphIO.edgeSchema))
    for ((kind, df) <- empties) failAfter(2.minutes) {
      assert(DistFCore.fairCore(df, 2, 2, 2).count() == 0, kind)
      assert(DistFCore.biFairCore(df, 2, 2, 2, 2).count() == 0, kind)
      assert(DistEnum.ssfbc(spark, df, FairParams(2, 2, 2)).count() == 0, kind)
      assert(DistEnum.bsfbc(spark, df, FairParams(2, 2, 2)).count() == 0, kind)
      for (bi <- Seq(false, true))
        assert(DistEnum.enumerate(spark, df, FairParams(2, 2, 2), VertexOrdering.DegOrd, bi, 2, 2, 0L).count() == 0, kind)
    }
  }

  test("result schema carries long arrays") {
    val g   = SynthBipartite.generate(SynthBipartite.youtubeS.copy(nU = 150, nV = 80, blocks = 6, noiseEdges = 300))
    val df  = GraphIO.toEdgeDF(spark, g)
    val res = DistEnum.ssfbc(spark, df, FairParams(2, 2, 2))
    assert(res.schema == DistEnum.resultSchema)
    if (res.count() > 0) {
      val r = res.head()
      assert(r.getSeq[Long](0).nonEmpty && r.getSeq[Long](1).nonEmpty)
    }
  }
}
