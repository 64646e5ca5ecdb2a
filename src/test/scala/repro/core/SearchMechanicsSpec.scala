package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bipartite.SynthBipartite

/** Mechanics the distributed driver relies on: root-subproblem
  * decomposition, the Q-superset safety of root-parallel FairBCEM++, and
  * the timeout plumbing.
  */
class SearchMechanicsSpec extends AnyFunSuite {

  test("FairBCEM roots are independent subproblems (sequential == per-root union)") {
    for (seed <- 0 until 10) {
      val g = SynthBipartite.randomSmall(seed * 71, 10, 12, 0.4)
      val p = FairParams(2, 2, 1)
      val c        = CFCore.pruned(g, p.alpha, p.beta)
      val searcher = new FairBCEM.Searcher(c.graph, c.uIds, c.vIds, p, naive = false, Long.MaxValue)
      val roots    = searcher.roots(VertexOrdering.DegOrd)
      val perRoot  = Vector.newBuilder[Biclique]
      // Shuffled root order must not change the union (independence).
      for (i <- new scala.util.Random(seed).shuffle(roots.indices.toList))
        searcher.runRoot(roots, i, perRoot += _)
      val expected = FairBCEM.enumerate(g, p).map(_.canonical).toSet
      val got = perRoot.result().map(_.canonical)
      assert(got.toSet == expected, s"seed=$seed")
      assert(got.size == got.toSet.size, s"seed=$seed produced duplicates")
    }
  }

  test("FairBCEM++ root-parallel (no C-set skipping) is duplicate-free and complete") {
    for (seed <- 0 until 10) {
      val g = SynthBipartite.randomSmall(seed * 73, 10, 12, 0.4)
      val p = FairParams(2, 2, 1)
      val c        = CFCore.pruned(g, p.alpha, p.beta)
      val searcher = new FairBCEMpp.Searcher(c.graph, c.uIds, c.vIds, p, proportional = false)
      val roots    = searcher.roots(VertexOrdering.DegOrd)
      val out      = Vector.newBuilder[Biclique]
      for (i <- roots.indices) searcher.runRoot(roots, i, out += _) // every root, no skips
      val got = out.result().map(_.canonical)
      assert(got.toSet == FairBCEMpp.enumerate(g, p).map(_.canonical).toSet, s"seed=$seed")
      assert(got.size == got.toSet.size, s"seed=$seed produced duplicates")
    }
  }

  test("FairBCEM++ roots run concurrently on one searcher give the per-root union") {
    val g     = SynthBipartite.generate(SynthBipartite.youtubeS.copy(nU = 300, nV = 120, blocks = 10, noiseEdges = 500))
    val p     = FairParams(3, 2, 2)
    val c     = CFCore.pruned(g, p.alpha, p.beta)
    def perRoot(searcher: FairBCEMpp.Searcher, roots: Array[Int], i: Int): Vector[Biclique] = {
      val out = Vector.newBuilder[Biclique]
      searcher.runRoot(roots, i, out += _)
      out.result()
    }
    val sequential = {
      val s     = new FairBCEMpp.Searcher(c.graph, c.uIds, c.vIds, p, proportional = false)
      val roots = s.roots(VertexOrdering.DegOrd)
      roots.indices.flatMap(perRoot(s, roots, _)).map(_.canonical)
    }
    assert(sequential.nonEmpty)

    val shared = new FairBCEMpp.Searcher(c.graph, c.uIds, c.vIds, p, proportional = false)
    val roots  = shared.roots(VertexOrdering.DegOrd)
    val pool   = java.util.concurrent.Executors.newFixedThreadPool(4)
    val got =
      try {
        val tasks = roots.indices.map { i =>
          pool.submit(new java.util.concurrent.Callable[Vector[Biclique]] {
            def call(): Vector[Biclique] = perRoot(shared, roots, i)
          })
        }
        tasks.flatMap(_.get()).map(_.canonical)
      } finally pool.shutdown()
    assert(got.size == got.toSet.size, "concurrent roots produced duplicates")
    assert(got.toSet == sequential.toSet)
    assert(got.size == sequential.size)
  }

  test("timeout: tiny budget returns None, generous budget returns the full set") {
    val g = SynthBipartite.generate(SynthBipartite.youtubeS.copy(nU = 600, nV = 300, blocks = 20, noiseEdges = 1500))
    val p = FairParams(3, 2, 2)
    // Naive search on this graph cannot finish in 1ms.
    assert(FairBCEM.enumerateOpt(g, p, VertexOrdering.DegOrd, naive = true, timeoutMs = 1).isEmpty)
    val full = FairBCEM.enumerateOpt(g, p, VertexOrdering.DegOrd, naive = false, timeoutMs = 600000)
    assert(full.nonEmpty)
    assert(full.get.map(_.canonical).toSet == FairBCEM.enumerate(g, p).map(_.canonical).toSet)
  }

  test("BiFair timeout propagates through the NSF phase") {
    val g = SynthBipartite.generate(SynthBipartite.youtubeS.copy(nU = 600, nV = 300, blocks = 20, noiseEdges = 1500))
    val p = FairParams(2, 2, 2)
    assert(BiFair.enumerateOpt(g, p, VertexOrdering.DegOrd, BiFair.UseNSF, timeoutMs = 1).isEmpty)
  }

  test("orderings: DegOrd sorts by non-increasing degree, IDOrd by id") {
    val deg = Map(0 -> 5, 1 -> 9, 2 -> 1, 3 -> 9)
    assert(VertexOrdering.DegOrd.order(Array(0, 1, 2, 3), deg).toSeq == Seq(1, 3, 0, 2))
    assert(VertexOrdering.IDOrd.order(Array(3, 1, 0, 2), deg).toSeq == Seq(0, 1, 2, 3))
  }

  test("Biclique canonicalisation and FairParams validation") {
    assert(Biclique(Vector(3, 1), Vector(2, 0)).canonical == Biclique(Vector(1, 3), Vector(0, 2)))
    assert(Biclique.of(Seq(3, 1), Seq(2)).left == Vector(1, 3))
    intercept[IllegalArgumentException](FairParams(-1, 0, 0))
    intercept[IllegalArgumentException](FairParams(1, 1, 1, theta = 0.6))
    intercept[IllegalArgumentException](FairParams(1, 1, 1, theta = 0.0))
  }
}
