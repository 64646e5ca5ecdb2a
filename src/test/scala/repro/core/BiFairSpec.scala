package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bipartite.SynthBipartite
import repro.graph.BipartiteGraph

/** Differential tests of the bi-side enumeration (Alg 9) in all three
  * phase-1 flavours (BFairBCEM, BFairBCEM++, BNSF).
  */
class BiFairSpec extends AnyFunSuite {

  private def asSet(bs: Vector[Biclique]): Set[Biclique] = {
    val set = bs.map(_.canonical).toSet
    assert(set.size == bs.size, s"duplicate enumeration: ${bs.size} vs ${set.size}")
    set
  }

  private def runDifferential(phase1: BiFair.Phase1, ordering: VertexOrdering,
                              a: Int, b: Int, d: Int): Unit = {
    var nonEmpty = 0
    for (seed <- 0 until 30) {
      val prob = math.min(0.8, 0.45 + 0.08 * (a + b))
      val g   = SynthBipartite.randomSmall(seed * 41 + a * 3 + b * 13 + d, 3 + seed % 4, 3 + seed % 5, prob)
      val p   = FairParams(a, b, d)
      val exp = BruteForce.allBSFBC(g, p)
      val got = asSet(BiFair.enumerate(g, p, ordering, phase1))
      assert(got == exp,
        s"seed=$seed α=$a β=$b δ=$d ord=${ordering.name} phase1=$phase1\n" +
        s"missing=${(exp -- got).take(3)}\nextra=${(got -- exp).take(3)}")
      if (exp.nonEmpty) nonEmpty += 1
    }
    assert(nonEmpty > 2, s"too few non-trivial cases ($nonEmpty)")
  }

  private val biVariants = Seq(
    ("BFairBCEM", BiFair.UseFairBCEM, VertexOrdering.DegOrd),
    ("BFairBCEM++", BiFair.UseFairBCEMpp, VertexOrdering.DegOrd),
    ("BNSF", BiFair.UseNSF, VertexOrdering.DegOrd),
    ("BFairBCEM++ (IDOrd)", BiFair.UseFairBCEMpp, VertexOrdering.IDOrd),
  )
  for {
    (name, phase1, ordering) <- biVariants
    (a, b, d) <- Seq((1, 1, 1), (1, 2, 2), (2, 1, 1), (1, 1, 0))
  } test(s"$name equals brute force at α=$a β=$b δ=$d") {
    runDifferential(phase1, ordering, a, b, d)
  }

  test("every result is a biclique, fair on both sides") {
    for (seed <- 0 until 15) {
      val g = SynthBipartite.randomSmall(7000 + seed, 7, 7, 0.55)
      val p = FairParams(1, 1, 1)
      for (bc <- BiFair.enumerate(g, p)) {
        assert(FairSet.isFair(bc.left, g.attrU, g.nAttrU, p.alpha, p.delta))
        assert(FairSet.isFair(bc.right, g.attrV, g.nAttrV, p.beta, p.delta))
        for (u <- bc.left; v <- bc.right) assert(g.hasEdge(u, v))
      }
    }
  }

  test("BFairBCEM and BFairBCEM++ agree on a planted-block graph") {
    val cfg = SynthBipartite.youtubeS.copy(nU = 250, nV = 100, blocks = 8, noiseEdges = 400)
    val g   = SynthBipartite.generate(cfg)
    val p   = FairParams(2, 2, 2)
    assert(asSet(BiFair.enumerate(g, p, phase1 = BiFair.UseFairBCEM)) ==
           asSet(BiFair.enumerate(g, p, phase1 = BiFair.UseFairBCEMpp)))
  }

  test("a BSFBC is always contained in some SSFBC (Observation 6)") {
    for (seed <- 0 until 15) {
      val g = SynthBipartite.randomSmall(8000 + seed, 6, 8, 0.5)
      val p = FairParams(1, 1, 1)
      val ss = FairBCEM.enumerate(g, p).map(_.canonical)
      for (bs <- BiFair.enumerate(g, p).map(_.canonical)) {
        assert(ss.exists(s => bs.left.forall(s.left.contains) && bs.right.forall(s.right.contains)),
          s"seed=$seed: $bs not inside any SSFBC")
      }
    }
  }

  test("expandLeft trips the explosion guard on the upper side") {
    // K40,2 with a 36/4 U split and δ=14: C(36,18) ≈ 9e9 left subsets.
    val g = BipartiteGraph.fromEdges(40, 2,
      for { u <- 0 until 40; v <- 0 until 2 } yield (u, v),
      (0 until 40).map(u => if (u < 36) 0 else 1).toArray, Array(0, 1))
    val ssfbc = Biclique(Vector.range(0, 40), Vector(0, 1))
    val e = intercept[IllegalArgumentException] {
      BiFair.expandLeft(g, FairParams(1, 1, 14), ssfbc, proportional = false)
    }
    assert(e.getMessage.contains("Combination explosion"))
  }

  test("phase-1 choices it cannot run are rejected, naming the phase 1") {
    val g = SynthBipartite.randomSmall(2, 6, 6, 0.6)
    val p = FairParams(1, 1, 1, theta = 0.3)
    // BFairBCEMPro++ is defined on FairBCEM++ only.
    for (phase1 <- Seq(BiFair.UseFairBCEM, BiFair.UseNSF)) {
      val e = intercept[IllegalArgumentException](BiFair.enumerate(g, p, phase1 = phase1, proportional = true))
      assert(e.getMessage.contains(phase1.toString))
    }
    // FairBCEM++ has no deadline to give the budget to.
    val e = intercept[IllegalArgumentException](BiFair.enumerate(g, p, phase1 = BiFair.UseFairBCEMpp, timeoutMs = 60000))
    assert(e.getMessage.contains("UseFairBCEMpp"))
    intercept[IllegalArgumentException](
      BiFair.enumerateOpt(g, p, VertexOrdering.DegOrd, BiFair.UseFairBCEMpp, timeoutMs = 60000))
  }

  test("hand-worked: two disjoint 2x2 blocks with balanced attributes") {
    val g = BipartiteGraph.fromEdges(4, 4,
      Seq((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)),
      Array(0, 1, 0, 1), Array(0, 1, 0, 1))
    val got = BiFair.enumerate(g, FairParams(1, 1, 0)).map(_.canonical).toSet
    assert(got == Set(
      Biclique(Vector(0, 1), Vector(0, 1)),
      Biclique(Vector(2, 3), Vector(2, 3))))
  }
}
