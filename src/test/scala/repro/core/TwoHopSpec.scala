package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bipartite.SynthBipartite

/** Local 2-hop graph construction (Alg 3 / Alg 8) vs naive pairwise counting. */
class TwoHopSpec extends AnyFunSuite {

  test("Construct2HopGraph matches naive common-neighbour counting") {
    for (seed <- 0 until 25; alpha <- Seq(1, 2, 3)) {
      val g     = SynthBipartite.randomSmall(seed * 7 + alpha, 8, 10, 0.4)
      val alive = (Array.fill(g.nU)(true), Array.fill(g.nV)(true))
      val h     = TwoHop.construct(g, alpha, alive._1, alive._2)
      for (v1 <- 0 until g.nV; v2 <- 0 until g.nV if v1 != v2) {
        val common = g.adjV(v1).toSet.intersect(g.adjV(v2).toSet).size
        assert(h.hasEdge(v1, v2) == (common >= alpha), s"seed=$seed α=$alpha pair=($v1,$v2)")
      }
    }
  }

  test("Construct2HopGraph honours alive masks") {
    val g = SynthBipartite.randomSmall(99, 8, 8, 0.5)
    val aliveU = Array.tabulate(g.nU)(_ % 2 == 0)
    val aliveV = Array.tabulate(g.nV)(_ != 3)
    val h = TwoHop.construct(g, 1, aliveU, aliveV)
    assert(h.adj(3).isEmpty)
    for (v1 <- 0 until g.nV; v2 <- 0 until g.nV if v1 != v2) {
      val common = g.adjV(v1).filter(aliveU(_)).toSet.intersect(g.adjV(v2).filter(aliveU(_)).toSet).size
      val expected = aliveV(v1) && aliveV(v2) && common >= 1
      assert(h.hasEdge(v1, v2) == expected, s"pair=($v1,$v2)")
    }
  }

  test("BiConstruct2HopGraph requires alpha common neighbours per U-attribute") {
    for (seed <- 0 until 25; alpha <- Seq(1, 2)) {
      val g     = SynthBipartite.randomSmall(seed * 13 + alpha, 8, 10, 0.45)
      val h     = TwoHop.biConstruct(g, alpha, Array.fill(g.nU)(true), Array.fill(g.nV)(true))
      for (v1 <- 0 until g.nV; v2 <- 0 until g.nV if v1 != v2) {
        val common = g.adjV(v1).toSet.intersect(g.adjV(v2).toSet)
        val perAttr = (0 until g.nAttrU).map(a => common.count(g.attrU(_) == a))
        assert(h.hasEdge(v1, v2) == perAttr.forall(_ >= alpha), s"seed=$seed α=$alpha ($v1,$v2)")
      }
    }
  }

  test("bi 2-hop graph is a subgraph of the single-side 2-hop graph") {
    val g  = SynthBipartite.randomSmall(555, 10, 12, 0.4)
    val tU = Array.fill(g.nU)(true); val tV = Array.fill(g.nV)(true)
    val h1 = TwoHop.construct(g, 2, tU, tV)   // total ≥ 2
    val h2 = TwoHop.biConstruct(g, 1, tU, tV) // ≥ 1 per attr ⇒ total ≥ 2
    for (v <- 0 until g.nV; w <- h2.adj(v)) assert(h1.hasEdge(v, w))
    // With one U attribute class the per-class condition is the total one,
    // so the two 2-hop graphs coincide.
    for (seed <- 0 until 15; alpha <- Seq(1, 2, 3)) {
      val g1    = SynthBipartite.randomSmall(560 + seed, 10, 12, 0.4, nAttrU = 1)
      val t1U   = Array.fill(g1.nU)(true); val t1V = Array.tabulate(g1.nV)(_ != seed % 12)
      val plain = TwoHop.construct(g1, alpha, t1U, t1V)
      val bi    = TwoHop.biConstruct(g1, alpha, t1U, t1V)
      for (v <- 0 until g1.nV) assert(bi.adj(v).toSeq == plain.adj(v).toSeq, s"seed=$seed α=$alpha v=$v")
    }
  }
}
