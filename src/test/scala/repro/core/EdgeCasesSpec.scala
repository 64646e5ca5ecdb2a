package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bipartite.SynthBipartite
import repro.graph.BipartiteGraph

/** Degenerate and boundary inputs for every public algorithm. */
class EdgeCasesSpec extends AnyFunSuite {

  private val k33 = BipartiteGraph.fromEdges(3, 3,
    for { u <- 0 until 3; v <- 0 until 3 } yield (u, v),
    Array(0, 1, 0), Array(0, 1, 1))

  test("empty graph yields no results anywhere") {
    val g = BipartiteGraph.fromEdges(3, 3, Nil, Array(0, 1, 0), Array(0, 1, 1))
    assert(FairBCEM.enumerate(g, FairParams(1, 1, 1)).isEmpty)
    assert(FairBCEMpp.enumerate(g, FairParams(1, 1, 1)).isEmpty)
    assert(BiFair.enumerate(g, FairParams(1, 1, 1)).isEmpty)
    assert(MBEA.enumerate(g, 1, 1).isEmpty)
  }

  test("alpha larger than |U| yields no results") {
    assert(FairBCEM.enumerate(k33, FairParams(4, 1, 1)).isEmpty)
    assert(FairBCEMpp.enumerate(k33, FairParams(4, 1, 1)).isEmpty)
  }

  test("beta larger than any attribute class yields no results") {
    assert(FairBCEM.enumerate(k33, FairParams(1, 2, 1)).isEmpty) // only one attr-0 V vertex
    assert(FairBCEMpp.enumerate(k33, FairParams(1, 2, 1)).isEmpty)
  }

  test("fromEdges rejects attributes outside the declared range on either side") {
    val es = Seq((0, 0), (1, 1))
    for ((attrU, attrV, side) <- Seq(
           (Array(0, 0), Array(2, 1), "V vertex 0 has attribute 2"),
           (Array(0, 0), Array(0, -1), "V vertex 1 has attribute -1"),
           (Array(0, 3), Array(0, 1), "U vertex 1 has attribute 3"),
           (Array(-1, 0), Array(0, 1), "U vertex 0 has attribute -1"))) {
      val e = intercept[IllegalArgumentException](BipartiteGraph.fromEdges(2, 2, es, attrU, attrV, 2, 2))
      assert(e.getMessage.contains(side), e.getMessage)
    }
  }

  test("single-edge graph") {
    val g = BipartiteGraph.fromEdges(1, 1, Seq((0, 0)), Array(0), Array(0), 1, 1)
    // One attribute class only: the single V vertex is trivially fair.
    val r = FairBCEM.enumerate(g, FairParams(1, 1, 0))
    assert(r == Vector(Biclique(Vector(0), Vector(0))))
    assert(FairBCEMpp.enumerate(g, FairParams(1, 1, 0)) == r)
  }

  test("star graphs: hub on each side") {
    // U-hub connected to 4 V vertices with balanced attributes.
    val g = BipartiteGraph.fromEdges(1, 4, (0 until 4).map(v => (0, v)),
      Array(0), Array(0, 1, 0, 1))
    val r = FairBCEM.enumerate(g, FairParams(1, 1, 0)).map(_.canonical).toSet
    assert(r == BruteForce.allSSFBC(g, FairParams(1, 1, 0)))
    // V-hub: every SSFBC needs both V attrs; a single V vertex can't be fair.
    val h = BipartiteGraph.fromEdges(4, 1, (0 until 4).map(u => (u, 0)),
      Array(0, 1, 0, 1), Array(0))
    assert(FairBCEM.enumerate(h, FairParams(1, 1, 1)).isEmpty)
  }

  test("delta=0 forces exactly balanced fair sides") {
    for (seed <- 0 until 10) {
      val g = SynthBipartite.randomSmall(4200 + seed, 6, 8, 0.5)
      for (bc <- FairBCEMpp.enumerate(g, FairParams(1, 1, 0))) {
        val c = FairSet.counts(bc.right, g.attrV, g.nAttrV)
        assert(c.distinct.length == 1, s"unbalanced at δ=0: $bc")
      }
    }
  }

  test("pruning disabled (all-alive masks) gives the same SSFBC set") {
    for (seed <- 0 until 8) {
      val g = SynthBipartite.randomSmall(4300 + seed, 10, 12, 0.4)
      val p = FairParams(2, 2, 1)
      val all      = g.compact(Array.fill(g.nU)(true), Array.fill(g.nV)(true))
      val unpruned = new FairBCEM.Searcher(all.graph, all.uIds, all.vIds, p, naive = false, Long.MaxValue)
        .enumerate(VertexOrdering.DegOrd)
      val pruned   = FairBCEM.enumerate(g, p)
      assert(unpruned.map(_.canonical).toSet == pruned.map(_.canonical).toSet, s"seed=$seed")
    }
  }

  test("pruning disabled gives the same FairBCEM++ set") {
    for (seed <- 0 until 8) {
      val g = SynthBipartite.randomSmall(4400 + seed, 10, 12, 0.4)
      val p = FairParams(2, 2, 1)
      val all      = g.compact(Array.fill(g.nU)(true), Array.fill(g.nV)(true))
      val unpruned = new FairBCEMpp.Searcher(all.graph, all.uIds, all.vIds, p, proportional = false)
        .enumerate(VertexOrdering.DegOrd)
      assert(unpruned.map(_.canonical).toSet == FairBCEMpp.enumerate(g, p).map(_.canonical).toSet)
    }
  }

  test("duplicate edges in the input are collapsed") {
    val edges = Seq((0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1))
    val g = BipartiteGraph.fromEdges(2, 2, edges, Array(0, 1), Array(0, 1))
    assert(g.numEdges == 4)
    assert(FairBCEM.enumerate(g, FairParams(1, 1, 0)).map(_.canonical).toSet ==
      Set(Biclique(Vector(0, 1), Vector(0, 1))))
  }

  test("isolated vertices do not disturb enumeration") {
    val g = BipartiteGraph.fromEdges(5, 5,
      Seq((0, 0), (0, 1), (1, 0), (1, 1)), // vertices 2..4 isolated on both sides
      Array(0, 1, 0, 1, 0), Array(0, 1, 0, 1, 0))
    val r = FairBCEM.enumerate(g, FairParams(1, 1, 1))
    assert(r.map(_.canonical).toSet == Set(Biclique(Vector(0, 1), Vector(0, 1))))
  }

  test("MBEA on an empty-threshold corner") {
    assert(MBEA.count(k33, 1, 1) == 1) // complete bipartite: one maximal biclique
    assert(MBEA.count(k33, 4, 1) == 0)
    assert(MBEA.count(k33, 1, 4) == 0)
  }

  test("bi-side with single-attribute sides behaves like size thresholds") {
    val g = BipartiteGraph.fromEdges(3, 3,
      for { u <- 0 until 3; v <- 0 until 3 } yield (u, v),
      Array(0, 0, 0), Array(0, 0, 0), 1, 1)
    val r = BiFair.enumerate(g, FairParams(2, 2, 0))
    assert(r.map(_.canonical).toSet == BruteForce.allBSFBC(g, FairParams(2, 2, 0)))
  }
}
