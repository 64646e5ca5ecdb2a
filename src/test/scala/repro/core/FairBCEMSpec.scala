package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bipartite.SynthBipartite
import repro.graph.BipartiteGraph

/** Differential tests of FairBCEM (Alg 5) and NSF against the definitional
  * brute force, across hundreds of random graphs and parameter settings.
  */
class FairBCEMSpec extends AnyFunSuite {

  private def ssfbcSet(bs: Vector[Biclique]): Set[Biclique] = {
    val set = bs.map(_.canonical).toSet
    assert(set.size == bs.size, s"duplicate enumeration: ${bs.size} results, ${set.size} distinct")
    set
  }

  private def runDifferential(naive: Boolean, ordering: VertexOrdering, a: Int, b: Int, d: Int): Unit = {
    var nonEmptyCases = 0
    for (seed <- 0 until 40) {
      val prob = math.min(0.75, 0.4 + 0.07 * (a + b)) // denser graphs for stricter thresholds
      val g   = SynthBipartite.randomSmall(seed * 31 + a * 7 + b * 3 + d, 3 + seed % 5, 4 + seed % 7, prob)
      val p   = FairParams(a, b, d)
      val exp = BruteForce.allSSFBC(g, p)
      val got = ssfbcSet(FairBCEM.enumerate(g, p, ordering, naive))
      assert(got == exp,
        s"seed=$seed α=$a β=$b δ=$d naive=$naive ord=${ordering.name}\n" +
        s"missing=${(exp -- got).take(3)}\nextra=${(got -- exp).take(3)}")
      if (exp.nonEmpty) nonEmptyCases += 1
    }
    assert(nonEmptyCases > 4, s"too few non-trivial cases ($nonEmptyCases) — weak test")
  }

  for {
    (naive, alg) <- Seq(false -> "FairBCEM", true -> "NSF")
    ordering     <- VertexOrdering.all
    (a, b, d)    <- Seq((1, 1, 1), (2, 1, 0), (1, 2, 2), (2, 2, 1))
  } test(s"$alg(${ordering.name}) equals brute force at α=$a β=$b δ=$d") {
    runDifferential(naive, ordering, a, b, d)
  }

  test("every result is a biclique, fair and alpha-large") {
    for (seed <- 0 until 20) {
      val g = SynthBipartite.randomSmall(1000 + seed, 7, 9, 0.5)
      val p = FairParams(2, 1, 1)
      for (bc <- FairBCEM.enumerate(g, p)) {
        assert(bc.left.size >= p.alpha)
        assert(FairSet.isFair(bc.right, g.attrV, g.nAttrV, p.beta, p.delta))
        for (u <- bc.left; v <- bc.right) assert(g.hasEdge(u, v), s"missing edge ($u,$v) in $bc")
        // L must be the full common neighbourhood of R.
        assert(g.commonNeighborsOfV(bc.right).toVector == bc.left)
      }
    }
  }

  test("hand-worked example: complete bipartite graph K3,4 with mixed attributes") {
    // U = {0,1,2}, V = {0,1,2,3}; attrV = (0,0,1,1). α=2, β=1, δ=0:
    // fair R subsets with |R_0| = |R_1|; maximal ones have N(R') = U for
    // every subset, so only the maximal fair sets survive: the four 1+1
    // pairs are dominated by 2+2; unique SSFBC is (U, V).
    val g = BipartiteGraph.fromEdges(3, 4,
      for { u <- 0 until 3; v <- 0 until 4 } yield (u, v),
      Array(0, 0, 1), Array(0, 0, 1, 1))
    val got = FairBCEM.enumerate(g, FairParams(2, 1, 0))
    assert(got.map(_.canonical).toSet ==
      Set(Biclique(Vector(0, 1, 2), Vector(0, 1, 2, 3))))
  }

  test("hand-worked example: two disjoint bicliques") {
    // Block A: U{0,1} x V{0,1}; Block B: U{2,3} x V{2,3}; attrV alternating.
    val g = BipartiteGraph.fromEdges(4, 4,
      Seq((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)),
      Array(0, 1, 0, 1), Array(0, 1, 0, 1))
    val got = FairBCEM.enumerate(g, FairParams(2, 1, 0)).map(_.canonical).toSet
    assert(got == Set(
      Biclique(Vector(0, 1), Vector(0, 1)),
      Biclique(Vector(2, 3), Vector(2, 3))))
  }

  test("no SSFBC when one attribute class is missing on the fair side") {
    val g = BipartiteGraph.fromEdges(3, 3,
      for { u <- 0 until 3; v <- 0 until 3 } yield (u, v),
      Array(0, 1, 0), Array(0, 0, 0)) // V all attribute 0
    assert(FairBCEM.enumerate(g, FairParams(1, 1, 1)).isEmpty)
  }

  test("delta = graph size degenerates towards plain maximal bicliques with size bounds") {
    for (seed <- 0 until 15) {
      val g = SynthBipartite.randomSmall(2000 + seed, 6, 8, 0.5)
      // β=0 disables the per-attribute lower bound; huge δ disables balance.
      val p   = FairParams(1, 0, 64)
      val got = ssfbcSet(FairBCEM.enumerate(g, p))
      val exp = BruteForce.allSSFBC(g, p)
      assert(got == exp, s"seed=$seed")
    }
  }

  test("orderings produce identical result sets on larger random graphs") {
    for (seed <- 0 until 10) {
      val g = SynthBipartite.randomSmall(3000 + seed, 12, 14, 0.35)
      val p = FairParams(2, 2, 1)
      val deg = ssfbcSet(FairBCEM.enumerate(g, p, VertexOrdering.DegOrd))
      val ido = ssfbcSet(FairBCEM.enumerate(g, p, VertexOrdering.IDOrd))
      assert(deg == ido)
    }
  }

  test("NSF equals FairBCEM beyond brute-force reach (300x150 planted graph)") {
    // NSF runs Alg 5 without Observations 2/4/5, so on a graph with planted
    // blocks it explores deep unpruned branches that the small brute-force
    // graphs above never reach.
    val g = SynthBipartite.generate(SynthBipartite.youtubeS.copy(
      nU = 300, nV = 150, blocks = 8, blockVMin = 5, blockVMax = 8, noiseEdges = 500))
    for ((p, expected) <- Seq(FairParams(3, 2, 2) -> 24, FairParams(2, 2, 1) -> 103)) {
      val fair = ssfbcSet(FairBCEM.enumerate(g, p))
      val nsf  = ssfbcSet(FairBCEM.enumerate(g, p, naive = true))
      assert(fair.size == expected, s"$p")
      assert(nsf == fair, s"$p: NSF ${nsf.size} vs FairBCEM ${fair.size}")
    }
  }
}
