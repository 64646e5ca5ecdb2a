package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bipartite.SynthBipartite
import repro.graph.BipartiteGraph

/** Differential tests of FairBCEM++ (Alg 6). */
class FairBCEMppSpec extends AnyFunSuite {

  private def asSet(bs: Vector[Biclique]): Set[Biclique] = {
    val set = bs.map(_.canonical).toSet
    assert(set.size == bs.size, s"duplicate enumeration: ${bs.size} vs ${set.size}")
    set
  }

  private def runDifferential(ordering: VertexOrdering, a: Int, b: Int, d: Int): Unit = {
    var nonEmpty = 0
    for (seed <- 0 until 40) {
      val prob = math.min(0.75, 0.4 + 0.07 * (a + b))
      val g   = SynthBipartite.randomSmall(seed * 37 + a * 5 + b * 11 + d, 3 + seed % 5, 4 + seed % 7, prob)
      val p   = FairParams(a, b, d)
      val exp = BruteForce.allSSFBC(g, p)
      val got = asSet(FairBCEMpp.enumerate(g, p, ordering))
      assert(got == exp,
        s"seed=$seed α=$a β=$b δ=$d ord=${ordering.name}\n" +
        s"missing=${(exp -- got).take(3)}\nextra=${(got -- exp).take(3)}")
      if (exp.nonEmpty) nonEmpty += 1
    }
    assert(nonEmpty > 4, s"too few non-trivial cases ($nonEmpty)")
  }

  for {
    ordering  <- VertexOrdering.all
    (a, b, d) <- Seq((1, 1, 1), (2, 1, 0), (1, 2, 2), (2, 2, 1))
  } test(s"FairBCEM++(${ordering.name}) equals brute force at α=$a β=$b δ=$d") {
    runDifferential(ordering, a, b, d)
  }

  test("FairBCEM++ equals FairBCEM on denser random graphs (beyond brute-force reach)") {
    for (seed <- 0 until 12) {
      val g  = SynthBipartite.randomSmall(5000 + seed, 14, 16, 0.4)
      val p  = FairParams(2, 2, 1)
      val a  = asSet(FairBCEM.enumerate(g, p))
      val b  = asSet(FairBCEMpp.enumerate(g, p))
      assert(a == b, s"seed=$seed: FairBCEM=${a.size} FairBCEM++=${b.size}")
    }
  }

  test("FairBCEM++ on a planted-block graph equals FairBCEM") {
    val cfg = SynthBipartite.youtubeS.copy(nU = 300, nV = 120, blocks = 10, noiseEdges = 500)
    val g   = SynthBipartite.generate(cfg)
    val p   = FairParams(3, 2, 2)
    assert(asSet(FairBCEM.enumerate(g, p)) == asSet(FairBCEMpp.enumerate(g, p)))
  }

  test("FairBCEM++ equals FairBCEM on the youtube-s analogue at (4,4,2)") {
    // Some of its non-fair maximal bicliques have more than 64 outside
    // neighbours in the filter's bitsets, so those span several words.
    val g = SynthBipartite.generate(SynthBipartite.youtubeS)
    val p = FairParams(4, 4, 2)
    for (ordering <- VertexOrdering.all) {
      val a = asSet(FairBCEM.enumerate(g, p, ordering))
      val b = asSet(FairBCEMpp.enumerate(g, p, ordering))
      assert(a.size == 10316, s"ord=${ordering.name}")
      assert(a == b, s"ord=${ordering.name}: FairBCEM=${a.size} FairBCEM++=${b.size}")
    }
  }

  test("FairBCEM++ and FairBCEMPro++ equal MBEA, Combination and the N(r') = L' filter (planted graph)") {
    val cfg   = SynthBipartite.youtubeS.copy(nU = 300, nV = 120, blocks = 10, noiseEdges = 500)
    val g0    = SynthBipartite.generate(cfg)
    val p     = FairParams(3, 2, 2)
    val alive = CFCore.prune(g0, p.alpha, p.beta)
    val g     = g0.restrict(alive.u, alive.v)
    val mbs   = MBEA.enumerate(g, p.alpha, 0)
    for (proportional <- Seq(false, true)) {
      val exp = mbs.flatMap { mb =>
        val byAttr = Array.tabulate(g.nAttrV)(a => mb.right.filter(g.attrV(_) == a).toArray)
        (if (proportional) FairSet.combinationPro(byAttr, p.beta, p.delta, p.theta)
         else FairSet.combination(byAttr, p.beta, p.delta))
          .filter(r => g.commonNeighborsOfV(r).toVector == mb.left)
          .map(r => Biclique(mb.left, r.toVector))
      }
      assert(exp.nonEmpty, s"proportional=$proportional")
      assert(asSet(FairBCEMpp.enumerate(g0, p, proportional = proportional)) == asSet(exp),
        s"proportional=$proportional")
    }
  }

  test("dblp-s: results in input ids where compaction relabels nearly every id") {
    // 49k U and 140k V ids; a few hundred survive the first peel.
    val g = SynthBipartite.generate(SynthBipartite.dblpS)
    for ((a, b) <- Seq((7, 7), (8, 6))) {
      val p  = FairParams(a, b, 2)
      val pp = asSet(FairBCEMpp.enumerate(g, p))
      assert(pp.nonEmpty && pp == asSet(FairBCEM.enumerate(g, p)), s"α=$a β=$b")
      for (bc <- pp) assert(g.commonNeighborsOfV(bc.right).toVector == bc.left, s"α=$a β=$b: L != N(R) for $bc")
    }
    for ((a, b) <- Seq((4, 4), (4, 5))) {
      val p  = FairParams(a, b, 2)
      val bi = asSet(BiFair.enumerate(g, p))
      assert(bi.nonEmpty && bi == asSet(BiFair.enumerate(g, p, phase1 = BiFair.UseFairBCEM)), s"bi α=$a β=$b")
      for (bc <- bi; u <- bc.left; v <- bc.right) assert(g.hasEdge(u, v), s"bi α=$a β=$b: ($u,$v) of $bc")
    }
  }

  test("a searcher over the unrestricted graph sees only alive vertices") {
    for (seed <- 0 until 12; ordering <- VertexOrdering.all; proportional <- Seq(false, true)) {
      val g0    = SynthBipartite.randomSmall(7000 + seed, 14, 16, 0.4)
      val p     = FairParams(2, 2, 1)
      val alive = CFCore.prune(g0, p.alpha, p.beta)
      val c     = g0.restrict(alive.u, alive.v).compact(alive.u, alive.v)
      val exp   = asSet(new FairBCEMpp.Searcher(c.graph, c.uIds, c.vIds, p, proportional).enumerate(ordering))
      val got   = asSet(new FairBCEMpp.Searcher(g0, alive, p, proportional).enumerate(ordering))
      assert(got == exp, s"seed=$seed ord=${ordering.name} proportional=$proportional")
    }
  }

  test("hand-worked: K3,4 single SSFBC") {
    val g = BipartiteGraph.fromEdges(3, 4,
      for { u <- 0 until 3; v <- 0 until 4 } yield (u, v),
      Array(0, 0, 1), Array(0, 0, 1, 1))
    val got = FairBCEMpp.enumerate(g, FairParams(2, 1, 0))
    assert(got.map(_.canonical).toSet == Set(Biclique(Vector(0, 1, 2), Vector(0, 1, 2, 3))))
  }

  test("unbalanced maximal biclique is split by Combination") {
    // K2,5 with attrV = (0,0,0,1,1): R not fair for δ=1 (3 vs 2 ok) — use
    // δ=0: maximal fair subsets have profile (2,2), choose 3C2 x 1 = 3...
    // attr0 has 3 elems pick 2, attr1 has 2 pick 2 → 3 results, each with
    // N(r') = U (complete graph), all maximal fair.
    val g = BipartiteGraph.fromEdges(2, 5,
      for { u <- 0 until 2; v <- 0 until 5 } yield (u, v),
      Array(0, 1), Array(0, 0, 0, 1, 1))
    val p   = FairParams(1, 1, 0)
    val got = FairBCEMpp.enumerate(g, p).map(_.canonical).toSet
    assert(got.size == 3)
    assert(got == BruteForce.allSSFBC(g, p))
  }

  test("explosion guard trips on pathological parameters") {
    // K1,40 with 30/10 attribute split and δ=25: C(30,?) explodes past the
    // guard? Profile = (min(30,35)=30, 10) → 1 combo; use δ such that
    // count is large: attr0 = 36 elems, attr1 = 4, δ=14 → csize0=18 →
    // C(36,18) ≈ 9e9 > guard.
    val g = BipartiteGraph.fromEdges(1, 40,
      (0 until 40).map(v => (0, v)),
      Array(0), (0 until 40).map(v => if (v < 36) 0 else 1).toArray)
    val e = intercept[IllegalArgumentException] {
      FairBCEMpp.enumerate(g, FairParams(1, 1, 14))
    }
    assert(e.getMessage.contains("Combination explosion"))
  }
}
