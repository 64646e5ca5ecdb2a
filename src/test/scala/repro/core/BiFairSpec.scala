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

  /** Alg 9 lines 4-8 candidate by candidate: each l′ from Combination is
    * kept when R′ is a maximal fair subset of N(l′), counted on
    * `commonNeighborsOfU(l′)`. Returns the kept bicliques and the number
    * of candidates.
    */
  private def expandReference(g: BipartiteGraph, p: FairParams, ssfbc: Biclique,
                              proportional: Boolean): (Vector[Biclique], Int) = {
    val byAttr  = Array.tabulate(g.nAttrU)(a => ssfbc.left.filter(g.attrU(_) == a).toArray)
    val rCounts = FairSet.counts(ssfbc.right, g.attrV, g.nAttrV)
    val combos  =
      if (proportional) FairSet.combinationPro(byAttr, p.alpha, p.delta, p.theta).toVector
      else FairSet.combination(byAttr, p.alpha, p.delta).toVector
    val kept = combos.filter { l =>
      val nl = FairSet.counts(g.commonNeighborsOfU(l), g.attrV, g.nAttrV)
      if (proportional) FairSet.isMaximalProportionFairSubsetCounts(nl, rCounts, p.beta, p.delta, p.theta)
      else FairSet.isMaximalFairSubsetCounts(nl, rCounts, p.beta, p.delta)
    }
    (kept.map(l => Biclique(l.toVector, ssfbc.right.sorted)), combos.size)
  }

  /** `expandLeft` equals `expandReference`, in order, on every one of
    * `ssfbcs`; returns the kept and the rejected candidate counts.
    */
  private def checkExpand(g: BipartiteGraph, p: FairParams, ssfbcs: Iterable[Biclique],
                          proportional: Boolean, what: String): (Int, Int) = {
    var kept = 0; var rejected = 0
    for (b <- ssfbcs) {
      val (exp, candidates) = expandReference(g, p, b, proportional)
      assert(BiFair.expandLeft(g, p, b, proportional) == exp, s"$what: $b")
      kept += exp.size; rejected += candidates - exp.size
    }
    (kept, rejected)
  }

  /** The phase-1 results BFairBCEM++ (BFairBCEMPro++) expands, on the
    * compact graph they are in.
    */
  private def phase1(g0: BipartiteGraph, p: FairParams, proportional: Boolean): (BipartiteGraph, Vector[Biclique]) = {
    val c = CFCore.biPruned(g0, p.alpha, p.beta)
    (c.graph, new FairBCEMpp.Searcher(c.graph, null, null, p, proportional).enumerate(VertexOrdering.DegOrd))
  }

  test("expandLeft equals the per-candidate reference on phase-1 results (dblp-s, youtube-s)") {
    val dblp    = SynthBipartite.generate(SynthBipartite.dblpS)
    val youtube = SynthBipartite.generate(SynthBipartite.youtubeS)
    for {
      (name, g0, a, b) <- Seq(("dblp-s", dblp, 4, 4), ("dblp-s", dblp, 4, 5), ("youtube-s", youtube, 3, 3))
      theta            <- Seq(None, Some(0.3), Some(0.4), Some(0.5))
    } {
      val p      = FairParams(a, b, 2, theta.getOrElse(0.5))
      val what   = s"$name α=$a β=$b θ=$theta"
      val (g, ss) = phase1(g0, p, theta.nonEmpty)
      val (kept, _) = checkExpand(g, p, ss, theta.nonEmpty, what)
      assert(ss.nonEmpty && kept > 0, what)
    }
  }

  test("expandLeft equals the per-candidate reference with 3 attribute values") {
    var kept = 0; var rejected = 0
    for (seed <- 0 until 40; nAttrU <- Seq(2, 3); delta <- Seq(0, 1, 2)) {
      val g0      = SynthBipartite.randomSmall(9000 + seed, 6 + seed % 4, 6 + seed % 5, 0.8, nAttrU, nAttrV = 3)
      val p       = FairParams(1, 1, delta)
      val (g, ss) = phase1(g0, p, proportional = false)
      val (k, r)  = checkExpand(g, p, ss, proportional = false, s"seed=$seed nAttrU=$nAttrU δ=$delta")
      kept += k; rejected += r
    }
    assert(kept > 0 && rejected > 0, s"kept=$kept rejected=$rejected")
  }

  test("expandLeft equals the per-candidate reference where shared outside neighbours lie past 64 V vertices") {
    // L′ = U 0..7 (six of attribute 0), R′ = V 200..203. V 0..119 each
    // touch one of U 0..2, so the outside vertices that several members
    // share, V 120..199, rank past the first 64-bit word.
    var kept = 0; var rejected = 0
    for (seed <- 0 until 20; prob <- Seq(0.2, 0.35)) {
      val rng   = new scala.util.Random(seed)
      val noise = (0 until 120).map(v => (v % 3, v))
      val deep  = for (v <- 120 until 200; u <- 0 until 8 if rng.nextDouble() < prob) yield (u, v)
      val core  = for (u <- 0 until 8; v <- 200 until 204) yield (u, v)
      val attrV = Array.tabulate(204)(v => if (v < 200) rng.nextInt(2) else v % 2)
      val g     = BipartiteGraph.fromEdges(8, 204, noise ++ deep ++ core,
                                           Array(0, 0, 0, 0, 0, 0, 1, 1), attrV)
      val ssfbc = Biclique(Vector.range(0, 8), Vector.range(200, 204))
      for (delta <- Seq(0, 1, 2); theta <- Seq(None, Some(0.3), Some(0.4))) {
        val p      = FairParams(1, 2, delta, theta.getOrElse(0.5))
        val (k, r) = checkExpand(g, p, Seq(ssfbc), theta.nonEmpty, s"seed=$seed prob=$prob δ=$delta θ=$theta")
        kept += k; rejected += r
      }
    }
    assert(kept > 0 && rejected > 0, s"kept=$kept rejected=$rejected")
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
