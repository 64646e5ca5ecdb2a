package repro.exp

import repro.SparkSpec
import repro.bipartite.SynthBipartite
import repro.core.{FairBCEMpp, FairParams}

/** Smoke tests of the experiment harnesses on miniature configs so the
  * bench wiring itself is covered by `sbt test`.
  */
class ExperimentsSpec extends SparkSpec {

  private val tiny = SynthBipartite.youtubeS.copy(
    name = "youtube-s", nU = 300, nV = 150, blocks = 8, noiseEdges = 600)

  test("timeMs measures and returns the value") {
    val (v, ms) = Experiments.timeMs { Thread.sleep(15); 42 }
    assert(v == 42)
    assert(ms >= 10)
  }

  test("tableI computes stats for a custom dataset list") {
    val rows = Experiments.tableI(spark, Seq(tiny))
    assert(rows.size == 1)
    val r = rows.head
    assert(r.nE > 0 && r.density > 0)
    assert(r.alphaS == 4 && r.delta == 2)
    assert(r.render.contains("youtube-s"))
  }

  test("tableII rows are consistent on a tiny dataset") {
    val rows = Experiments.tableII(Seq(tiny), Seq(repro.core.VertexOrdering.DegOrd))
    assert(rows.map(_.algorithm).toSet ==
      Set("FairBCEM", "FairBCEM++", "BFairBCEM", "BFairBCEM++"))
    val m = rows.map(r => r.algorithm -> r).toMap
    assert(m("FairBCEM").results == m("FairBCEM++").results)
    assert(m("BFairBCEM").results == m("BFairBCEM++").results)
    assert(rows.forall(_.seconds >= 0))
  }

  test("exp1Pruning rows are internally consistent") {
    val rows = Experiments.exp1Pruning(tiny, Seq(3, 4), Seq(3), 4, 4, bi = false)
    assert(rows.nonEmpty)
    for (r <- rows) {
      assert(r.cfcoreVerts <= r.fcoreVerts)
      assert(r.fcoreVerts <= r.origVerts)
      assert(r.render.nonEmpty)
    }
  }

  test("exp2 sweep cross-checks FairBCEM against FairBCEM++ per point") {
    val rows = Experiments.exp2Ssfbc(tiny, "alpha", Seq(3, 4), naiveTimeoutMs = 0)
    assert(rows.size == 4)
    assert(rows.count(_.algorithm == "FairBCEM") == 2)
  }

  test("exp2 reports INF when the naive budget is tiny") {
    val rows = Experiments.exp2Ssfbc(tiny, "alpha", Seq(3), naiveTimeoutMs = 1)
    val nsf  = rows.find(_.algorithm == "NSF").get
    assert(nsf.isInf)
    assert(nsf.render.contains("INF"))
  }

  test("exp3 sweep: BFairBCEM and BFairBCEM++ agree at each point, BNSF reads INF on a tiny budget") {
    val rows = Experiments.exp3Bsfbc(tiny, "alpha", Seq(2, 3), naiveTimeoutMs = 1)
    assert(rows.size == 6)
    for ((v, point) <- rows.groupBy(_.value)) {
      val m = point.map(r => r.algorithm -> r).toMap
      assert(m.keySet == Set("BNSF", "BFairBCEM", "BFairBCEM++"), s"alpha=$v")
      assert(m("BFairBCEM").results == m("BFairBCEM++").results, s"alpha=$v")
      assert(m("BNSF").isInf && m("BNSF").render.contains("INF"), s"alpha=$v")
    }
  }

  test("exp4Counts SSFBC column equals a direct enumeration") {
    val rows = Experiments.exp4Counts(tiny, "alpha", Seq(4))
    val g    = SynthBipartite.generate(tiny)
    val expected = FairBCEMpp.enumerate(g, FairParams(4, 4, 2)).size.toLong
    assert(rows.head.ssfbc == expected)
    assert(rows.head.maximalS >= 0)
  }

  test("exp5Scale produces one row per algorithm and fraction") {
    val rows = Experiments.exp5Scale(tiny, Seq(0.5, 1.0))
    assert(rows.size == 8)
    assert(rows.forall(_.seconds >= 0))
  }

  test("exp7Proportion runs both proportional algorithms") {
    val rows = Experiments.exp7Proportion(tiny, Seq(0.4, 0.5))
    assert(rows.map(_.algorithm).toSet == Set("FairBCEMPro++", "BFairBCEMPro++"))
    assert(rows.size == 4)
  }

  test("distSsfbcCount matches the local count") {
    val (n, secs) = Experiments.distSsfbcCount(spark, tiny)
    val g = SynthBipartite.generate(tiny)
    assert(n == FairBCEMpp.enumerate(g, FairParams(4, 4, 2)).size.toLong)
    assert(secs >= 0)
  }

  test("withParam rejects unknown names via the sweep API") {
    intercept[IllegalArgumentException] {
      Experiments.exp2Ssfbc(tiny, "gamma", Seq(1), naiveTimeoutMs = 0)
    }
  }
}
