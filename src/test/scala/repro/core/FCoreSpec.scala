package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bipartite.SynthBipartite
import repro.graph.BipartiteGraph

/** FCore (Alg 1) and BFCore (Def 13) invariants and safety. */
class FCoreSpec extends AnyFunSuite {

  test("fair core satisfies the degree conditions of Def 8") {
    for (seed <- 0 until 20; (a, b) <- Seq((1, 1), (2, 1), (2, 2), (3, 2))) {
      val g     = SynthBipartite.randomSmall(seed * 17 + a + b, 10, 12, 0.35)
      val alive = FCore.fairCore(g, a, b)
      val h     = g.restrict(alive.u, alive.v)
      for (u <- 0 until g.nU if alive.u(u); attr <- 0 until g.nAttrV)
        assert(h.attrDegU(u, attr) >= b, s"seed=$seed u=$u attr=$attr")
      for (v <- 0 until g.nV if alive.v(v))
        assert(h.degV(v) >= a, s"seed=$seed v=$v")
    }
  }

  test("fair core is maximal: no removed vertex could be put back") {
    for (seed <- 0 until 10) {
      val g     = SynthBipartite.randomSmall(100 + seed, 9, 11, 0.4)
      val (a, b) = (2, 1)
      val alive = FCore.fairCore(g, a, b)
      // Putting back any single removed U-vertex violates its own condition
      // w.r.t. the surviving V side (fixpoint property of cores).
      for (u <- 0 until g.nU if !alive.u(u)) {
        val cnt = new Array[Int](g.nAttrV)
        g.adjU(u).foreach(v => if (alive.v(v)) cnt(g.attrV(v)) += 1)
        assert(cnt.min < b, s"seed=$seed: removed u=$u would survive")
      }
      for (v <- 0 until g.nV if !alive.v(v)) {
        assert(g.adjV(v).count(alive.u(_)) < a, s"seed=$seed: removed v=$v would survive")
      }
    }
  }

  test("every SSFBC survives FCore (Lemma 1)") {
    for (seed <- 0 until 25; (a, b, d) <- Seq((1, 1, 1), (2, 1, 1), (2, 2, 2))) {
      val g     = SynthBipartite.randomSmall(200 + seed * 13 + a + b, 6, 9, 0.5)
      val alive = FCore.fairCore(g, a, b)
      for (bc <- BruteForce.allSSFBC(g, FairParams(a, b, d))) {
        assert(bc.left.forall(alive.u(_)), s"seed=$seed pruned L vertex of $bc")
        assert(bc.right.forall(alive.v(_)), s"seed=$seed pruned R vertex of $bc")
      }
    }
  }

  test("every BSFBC survives BFCore (Lemma 3)") {
    for (seed <- 0 until 25; (a, b, d) <- Seq((1, 1, 1), (1, 2, 2), (2, 1, 1))) {
      val g     = SynthBipartite.randomSmall(300 + seed * 19 + a + b, 6, 8, 0.5)
      val alive = FCore.biFairCore(g, a, b)
      for (bc <- BruteForce.allBSFBC(g, FairParams(a, b, d))) {
        assert(bc.left.forall(alive.u(_)), s"seed=$seed pruned L vertex of $bc")
        assert(bc.right.forall(alive.v(_)), s"seed=$seed pruned R vertex of $bc")
      }
    }
  }

  test("bi-fair core satisfies the per-attribute conditions of Def 13") {
    for (seed <- 0 until 15) {
      val g     = SynthBipartite.randomSmall(400 + seed, 10, 10, 0.4)
      val (a, b) = (1, 2)
      val alive = FCore.biFairCore(g, a, b)
      val h     = g.restrict(alive.u, alive.v)
      for (u <- 0 until g.nU if alive.u(u); attr <- 0 until g.nAttrV)
        assert(h.attrDegU(u, attr) >= b)
      for (v <- 0 until g.nV if alive.v(v); attr <- 0 until g.nAttrU)
        assert(h.attrDegV(v, attr) >= a)
    }
  }

  test("bi-fair core is a subgraph of the fair core") {
    for (seed <- 0 until 15) {
      val g  = SynthBipartite.randomSmall(500 + seed, 10, 12, 0.4)
      val s  = FCore.fairCore(g, 2, 2)
      // Per-attr α=1 implies total degree ≥ nAttrU·1 = 2, so the bi core
      // satisfies the fair-core conditions and sits inside the fair core.
      val bi = FCore.biFairCore(g, 1, 2)
      for (u <- 0 until g.nU if bi.u(u)) assert(s.u(u), s"seed=$seed u=$u")
      for (v <- 0 until g.nV if bi.v(v)) assert(s.v(v), s"seed=$seed v=$v")
    }
    // With one U attribute class the per-class V condition is the plain
    // degree condition, so the two cores coincide.
    for (seed <- 0 until 15; (a, b) <- Seq((1, 1), (2, 1), (2, 2), (3, 2))) {
      val g  = SynthBipartite.randomSmall(550 + seed, 10, 12, 0.4, nAttrU = 1)
      val s  = FCore.fairCore(g, a, b)
      val bi = FCore.biFairCore(g, a, b)
      assert(bi.u.toSeq == s.u.toSeq, s"seed=$seed α=$a β=$b")
      assert(bi.v.toSeq == s.v.toSeq, s"seed=$seed α=$a β=$b")
    }
  }

  test("fair core is idempotent") {
    val g  = SynthBipartite.randomSmall(600, 12, 14, 0.35)
    val a1 = FCore.fairCore(g, 2, 2)
    val a2 = FCore.fairCore(g, 2, 2, initU = Some(a1.u), initV = Some(a1.v))
    assert(a1.u.toSeq == a2.u.toSeq)
    assert(a1.v.toSeq == a2.v.toSeq)
  }

  test("the degree seed is exact: both cores equal the peel started from every vertex") {
    val planted = SynthBipartite.generate(SynthBipartite.youtubeS.copy(nU = 300, nV = 120, blocks = 10, noiseEdges = 500))
    val graphs =
      (0 until 10).map(s => SynthBipartite.randomSmall(800 + s, 10, 12, 0.45)) ++
      (0 until 10).map(s => SynthBipartite.randomSmall(900 + s, 9, 11, 0.6, nAttrU = 3, nAttrV = 3)) ++
      Seq(planted, new BipartiteGraph(planted.adjU, planted.adjV, Array.tabulate(planted.nU)(_ % 3),
                                      Array.tabulate(planted.nV)(v => v / 2 % 3), 3, 3))
    def same(x: FCore.Alive, y: FCore.Alive): Boolean = x.u.sameElements(y.u) && x.v.sameElements(y.v)
    for ((g, i) <- graphs.zipWithIndex; a <- 0 to 4; b <- 0 to 4) {
      val allU = Some(Array.fill(g.nU)(true))
      val allV = Some(Array.fill(g.nV)(true))
      assert(same(FCore.fairCore(g, a, b), FCore.fairCore(g, a, b, allU, allV)), s"graph $i α=$a β=$b")
      assert(same(FCore.biFairCore(g, a, b), FCore.biFairCore(g, a, b, allU, allV)), s"bi graph $i α=$a β=$b")
    }
  }

  test("empty graph and trivial thresholds") {
    val g = SynthBipartite.randomSmall(700, 5, 5, 0.0)
    val alive = FCore.fairCore(g, 1, 1)
    assert(alive.countU == 0 && alive.countV == 0)
    val alive0 = FCore.fairCore(g, 0, 0)
    assert(alive0.countU == 5 && alive0.countV == 5) // no constraint binds
  }
}
