package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.bipartite.SynthBipartite

/** `BipartiteGraph.compact`: the relabelled subgraph the pruners hand on. */
class BipartiteGraphSpec extends AnyFunSuite {

  test("compact keeps exactly the edges between alive vertices and their attributes") {
    for (seed <- 0 until 20) {
      val g      = SynthBipartite.randomSmall(500 + seed, 12, 15, 0.4, nAttrU = 3, nAttrV = 2)
      val rng    = new scala.util.Random(seed)
      val aliveU = Array.fill(g.nU)(rng.nextDouble() < 0.6)
      val aliveV = Array.fill(g.nV)(rng.nextDouble() < 0.6)
      val c      = g.compact(aliveU, aliveV)
      val h      = c.graph
      // The id maps list the alive vertices in ascending order.
      assert(c.uIds.toSeq == (0 until g.nU).filter(aliveU(_)), s"seed=$seed")
      assert(c.vIds.toSeq == (0 until g.nV).filter(aliveV(_)), s"seed=$seed")
      assert(h.nU == c.uIds.length && h.nV == c.vIds.length)
      val edges = for (u <- 0 until h.nU; v <- h.adjU(u)) yield (c.uIds(u), c.vIds(v))
      assert(edges == (for (u <- 0 until g.nU if aliveU(u); v <- g.adjU(u) if aliveV(v)) yield (u, v)), s"seed=$seed")
      for (v <- 0 until h.nV)
        assert(h.adjV(v).toSeq == (0 until h.nU).filter(h.adjU(_).contains(v)), s"seed=$seed v=$v")
      assert(h.attrU.toSeq == c.uIds.map(g.attrU).toSeq && h.attrV.toSeq == c.vIds.map(g.attrV).toSeq)
      assert(h.nAttrU == 3 && h.nAttrV == 2)

      // Compacting again maps to the first graph's ids.
      val keepU = Array.tabulate(h.nU)(_ % 2 == 0)
      val keepV = Array.tabulate(h.nV)(_ % 3 != 1)
      val c2    = c.compact(keepU, keepV)
      val once  = g.compact(BipartiteGraph.mask(c.uIds.filter(u => keepU(c.uIds.indexOf(u))), g.nU),
                            BipartiteGraph.mask(c.vIds.filter(v => keepV(c.vIds.indexOf(v))), g.nV))
      assert(c2.uIds.toSeq == once.uIds.toSeq && c2.vIds.toSeq == once.vIds.toSeq, s"seed=$seed")
      assert(c2.graph.adjU.map(_.toSeq).toSeq == once.graph.adjU.map(_.toSeq).toSeq, s"seed=$seed")
    }
  }

  test("compact with empty masks is the empty graph") {
    val g = SynthBipartite.randomSmall(42, 6, 7, 0.5)
    val c = g.compact(Array.fill(g.nU)(false), Array.fill(g.nV)(false))
    assert(c.graph.nU == 0 && c.graph.nV == 0 && c.graph.numEdges == 0)
    assert(c.uIds.isEmpty && c.vIds.isEmpty)
  }

  test("ids and mask are inverse") {
    val m = Array(false, true, true, false, true)
    assert(BipartiteGraph.ids(m).toSeq == Seq(1, 2, 4))
    assert(BipartiteGraph.mask(BipartiteGraph.ids(m), m.length).toSeq == m.toSeq)
  }
}
