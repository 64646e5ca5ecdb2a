package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bipartite.SynthBipartite
import repro.graph.BipartiteGraph

/** Differential tests of the proportional models: FairBCEMPro++ (PSSFBC)
  * and BFairBCEMPro++ (PBSFBC).
  */
class ProportionSpec extends AnyFunSuite {

  private def asSet(bs: Vector[Biclique]): Set[Biclique] = {
    val set = bs.map(_.canonical).toSet
    assert(set.size == bs.size, s"duplicate enumeration: ${bs.size} vs ${set.size}")
    set
  }

  test("FairBCEMPro++ equals brute-force PSSFBC") {
    var nonEmpty = 0
    for (seed <- 0 until 30; theta <- Seq(0.3, 0.4, 0.5); (a, b, d) <- Seq((1, 1, 2), (2, 1, 1))) {
      val g   = SynthBipartite.randomSmall(seed * 43 + (theta * 10).toInt, 2 + seed % 5, 2 + seed % 7, 0.5)
      val p   = FairParams(a, b, d, theta)
      val exp = BruteForce.allPSSFBC(g, p)
      val got = asSet(FairBCEMpp.enumerate(g, p, proportional = true))
      assert(got == exp,
        s"seed=$seed θ=$theta α=$a β=$b δ=$d\nmissing=${(exp -- got).take(3)}\nextra=${(got -- exp).take(3)}")
      if (exp.nonEmpty) nonEmpty += 1
    }
    assert(nonEmpty > 20, s"too few non-trivial cases ($nonEmpty)")
  }

  test("BFairBCEMPro++ equals brute-force PBSFBC") {
    var nonEmpty = 0
    for (seed <- 0 until 25; theta <- Seq(0.3, 0.4, 0.5)) {
      val g   = SynthBipartite.randomSmall(seed * 47 + (theta * 10).toInt, 2 + seed % 5, 2 + seed % 5, 0.55)
      val p   = FairParams(1, 1, 2, theta)
      val exp = BruteForce.allPBSFBC(g, p)
      val got = asSet(BiFair.enumerate(g, p, proportional = true))
      assert(got == exp,
        s"seed=$seed θ=$theta\nmissing=${(exp -- got).take(3)}\nextra=${(got -- exp).take(3)}")
      if (exp.nonEmpty) nonEmpty += 1
    }
    assert(nonEmpty > 10, s"too few non-trivial cases ($nonEmpty)")
  }

  test("theta=0.5 PSSFBC equals SSFBC with delta=0 (paper Exp-7 observation)") {
    for (seed <- 0 until 15) {
      val g = SynthBipartite.randomSmall(9000 + seed, 6, 8, 0.5)
      val pro  = asSet(FairBCEMpp.enumerate(g, FairParams(1, 1, 3, 0.5), proportional = true))
      val fair = asSet(FairBCEMpp.enumerate(g, FairParams(1, 1, 0, 0.5)))
      assert(pro == fair, s"seed=$seed")
    }
  }

  test("every PSSFBC satisfies the ratio bound on the fair side") {
    for (seed <- 0 until 15) {
      val g = SynthBipartite.randomSmall(9100 + seed, 6, 9, 0.5)
      val p = FairParams(1, 1, 2, 0.4)
      for (bc <- FairBCEMpp.enumerate(g, p, proportional = true)) {
        assert(FairSet.isProportionFair(bc.right, g.attrV, g.nAttrV, p.beta, p.delta, p.theta))
      }
    }
  }

  // K4,4 with a 3-valued side: first with one class empty, then with all
  // three non-empty. Both are refused, whatever the search would meet.
  private val complete = for (u <- 0 until 4; v <- 0 until 4) yield (u, v)
  private val threeValued = Seq(Array(0, 0, 1, 1), Array(0, 1, 2, 2))

  test("FairBCEMPro++ refuses a V side with other than 2 attribute values") {
    for (attrV <- threeValued) {
      val g = BipartiteGraph.fromEdges(4, 4, complete, Array(0, 1, 0, 1), attrV, nAttrV = 3)
      val e = intercept[IllegalArgumentException](
        FairBCEMpp.enumerate(g, FairParams(1, 1, 1, 0.3), proportional = true))
      assert(e.getMessage.contains("2 attribute values"), attrV.mkString(","))
    }
  }

  test("BFairBCEMPro++ refuses a side with other than 2 attribute values") {
    for (attr <- threeValued; uSide <- Seq(true, false)) {
      val two = Array(0, 1, 0, 1)
      val g =
        if (uSide) BipartiteGraph.fromEdges(4, 4, complete, attr, two, nAttrU = 3)
        else BipartiteGraph.fromEdges(4, 4, complete, two, attr, nAttrV = 3)
      val e = intercept[IllegalArgumentException](
        BiFair.enumerate(g, FairParams(1, 1, 1, 0.3), proportional = true))
      assert(e.getMessage.contains("2 attribute values"), s"uSide=$uSide ${attr.mkString(",")}")
    }
  }
}
