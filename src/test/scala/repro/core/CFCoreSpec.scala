package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bipartite.SynthBipartite
import repro.graph.{AttributedGraph, BipartiteGraph, Coloring}

/** CFCore (Alg 2) / BCFCore safety and effectiveness. */
class CFCoreSpec extends AnyFunSuite {

  test("CFCore is safe: every SSFBC survives (Lemma 2)") {
    for (seed <- 0 until 30; (a, b, d) <- Seq((1, 1, 1), (2, 1, 2), (2, 2, 1))) {
      val g     = SynthBipartite.randomSmall(seed * 23 + a * 2 + b, 7, 9, 0.5)
      val alive = CFCore.prune(g, a, b)
      for (bc <- BruteForce.allSSFBC(g, FairParams(a, b, d))) {
        assert(bc.left.forall(alive.u(_)), s"seed=$seed α=$a β=$b pruned L of $bc")
        assert(bc.right.forall(alive.v(_)), s"seed=$seed α=$a β=$b pruned R of $bc")
      }
    }
  }

  test("BCFCore is safe: every BSFBC survives") {
    for (seed <- 0 until 30; (a, b, d) <- Seq((1, 1, 1), (1, 2, 2), (2, 1, 1))) {
      val g     = SynthBipartite.randomSmall(seed * 29 + a + b * 2, 6, 8, 0.55)
      val alive = CFCore.biPrune(g, a, b)
      for (bc <- BruteForce.allBSFBC(g, FairParams(a, b, d))) {
        assert(bc.left.forall(alive.u(_)), s"seed=$seed pruned L of $bc")
        assert(bc.right.forall(alive.v(_)), s"seed=$seed pruned R of $bc")
      }
    }
  }

  test("CFCore prunes at least as much as FCore") {
    for (seed <- 0 until 15) {
      val g  = SynthBipartite.randomSmall(1000 + seed, 12, 14, 0.3)
      val fc = FCore.fairCore(g, 2, 2)
      val cf = CFCore.prune(g, 2, 2)
      for (u <- 0 until g.nU if cf.u(u)) assert(fc.u(u))
      for (v <- 0 until g.nV if cf.v(v)) assert(fc.v(v))
      assert(cf.countU <= fc.countU && cf.countV <= fc.countV)
    }
  }

  test("CFCore strictly beats FCore on a graph with a fake-degree vertex") {
    // v9 has high degree but its co-neighbours all share one colour class
    // situation: star centres give v9 many 2-hop neighbours of one
    // attribute only, so its ego colorful degree for the other attribute
    // stays below β.
    val blocks = for { u <- 0 until 4; v <- 0 until 4 } yield (u, v)
    // v4..v7 (attr 0 only) share hub u4 with v0; v0 has plenty of degree.
    val extra = Seq((4, 0), (4, 4), (4, 5), (4, 6), (4, 7), (5, 0), (5, 4), (5, 5), (5, 6), (5, 7))
    val g = repro.graph.BipartiteGraph.fromEdges(6, 8, blocks ++ extra,
      Array(0, 1, 0, 1, 0, 1), Array(0, 1, 0, 1, 0, 0, 0, 0))
    val fc = FCore.fairCore(g, 2, 2)
    val cf = CFCore.prune(g, 2, 2)
    assert(cf.countU + cf.countV <= fc.countU + fc.countV)
  }

  test("prune and biPrune equal the id-preserving pipeline rebuilt from public pieces") {
    // FCore → 2-hop graph → degree cut → ego colorful core → FCore, every
    // stage over the input's ids.
    def side(h: AttributedGraph, k: Int, alive0: Array[Boolean]): Array[Boolean] = {
      val alive = alive0.clone()
      for (v <- 0 until h.n) if (alive(v) && h.adj(v).count(alive(_)) < h.nAttr * k - 1) alive(v) = false
      CFCore.egoColorfulCore(h, k, alive)
    }
    def prune(g: BipartiteGraph, a: Int, b: Int): FCore.Alive = {
      val core1  = FCore.fairCore(g, a, b)
      val aliveV = side(TwoHop.construct(g, a, core1.u, core1.v), b, core1.v)
      FCore.fairCore(g, a, b, Some(core1.u), Some(aliveV))
    }
    def biPrune(g: BipartiteGraph, a: Int, b: Int): FCore.Alive = {
      val core1  = FCore.biFairCore(g, a, b)
      val aliveV = side(TwoHop.biConstruct(g, a, core1.u, core1.v), b, core1.v)
      val aliveU = side(TwoHop.biConstruct(g.transpose, b, aliveV, core1.u), a, core1.u)
      FCore.biFairCore(g, a, b, Some(aliveU), Some(aliveV))
    }
    def same(x: FCore.Alive, y: FCore.Alive): Boolean = x.u.sameElements(y.u) && x.v.sameElements(y.v)
    val graphs = (0 until 15).map(s => SynthBipartite.randomSmall(1100 + s, 12, 14, 0.45)) ++
      Seq(SynthBipartite.generate(SynthBipartite.youtubeS),
          SynthBipartite.generate(SynthBipartite.youtubeS.copy(nU = 300, nV = 120, blocks = 10, noiseEdges = 500)))
    var pruned = 0
    for ((g, i) <- graphs.zipWithIndex; (a, b) <- Seq((1, 1), (2, 1), (2, 2), (3, 2), (4, 4))) {
      val single = CFCore.prune(g, a, b)
      assert(same(single, prune(g, a, b)), s"graph $i α=$a β=$b")
      assert(same(CFCore.biPrune(g, a, b), biPrune(g, a, b)), s"bi graph $i α=$a β=$b")
      if (single.countV < FCore.fairCore(g, a, b).countV) pruned += 1
    }
    assert(pruned > 0, "the colourful step removed nothing in any case")
  }

  test("ego colorful core respects Def 10") {
    for (seed <- 0 until 20) {
      val rng  = new scala.util.Random(seed)
      val n    = 12
      val edges = for { i <- 0 until n; j <- i + 1 until n if rng.nextDouble() < 0.4 } yield (i, j)
      val attr = Array.fill(n)(rng.nextInt(2))
      val h    = AttributedGraph.fromEdges(n, edges, attr)
      val k    = 2
      val alive = CFCore.egoColorfulCore(h, k, Array.fill(n)(true))
      // Surviving vertices must have ego colorful degree >= k for every
      // attribute *within the surviving subgraph*, under the colouring of
      // the full (pre-peel) graph restricted to the initial alive set.
      val color = Coloring.greedyByDegree(h)
      for (u <- 0 until n if alive(u); a <- 0 until 2) {
        val colors = (h.adj(u).filter(alive(_)) :+ u).filter(attr(_) == a).map(color).distinct
        assert(colors.size >= k, s"seed=$seed u=$u attr=$a")
      }
    }
  }

  test("greedy coloring is proper and degree-ordered") {
    for (seed <- 0 until 20) {
      val rng   = new scala.util.Random(100 + seed)
      val n     = 15
      val edges = for { i <- 0 until n; j <- i + 1 until n if rng.nextDouble() < 0.3 } yield (i, j)
      val h     = AttributedGraph.fromEdges(n, edges, Array.fill(n)(0), 1)
      val color = Coloring.greedyByDegree(h)
      for (u <- 0 until n; v <- h.adj(u)) assert(color(u) != color(v), s"seed=$seed edge ($u,$v)")
      assert(Coloring.numColors(color) <= (0 until n).map(h.deg).maxOption.getOrElse(0) + 1)
    }
  }

  test("greedy coloring matches the plain degree-ordered reference with isolated vertices") {
    def reference(h: AttributedGraph): Array[Int] = {
      val color = Array.fill(h.n)(-1)
      for (v <- Array.range(0, h.n).sortBy(v => (-h.deg(v), v))) {
        val used = h.adj(v).map(color).filter(_ >= 0).toSet
        color(v) = Iterator.from(0).find(c => !used(c)).get
      }
      color
    }
    for (seed <- 0 until 40) {
      val rng      = new scala.util.Random(300 + seed)
      val n        = 5 + rng.nextInt(40)
      val isolated = Array.fill(n)(rng.nextDouble() < 0.4)
      val edges = for {
        i <- 0 until n; j <- i + 1 until n
        if !isolated(i) && !isolated(j) && rng.nextDouble() < 0.25
      } yield (i, j)
      val h     = AttributedGraph.fromEdges(n, edges, Array.fill(n)(rng.nextInt(2)))
      val color = Coloring.greedyByDegree(h)
      assert(color.toSeq == reference(h).toSeq, s"seed=$seed")
      for (v <- 0 until n if h.deg(v) == 0) assert(color(v) == 0, s"seed=$seed dead $v")
    }
  }

  test("clique needs n colors; ego colorful degree counts distinct colors once") {
    val n = 5
    val edges = for { i <- 0 until n; j <- i + 1 until n } yield (i, j)
    val h = AttributedGraph.fromEdges(n, edges, Array(0, 0, 0, 1, 1))
    val color = Coloring.greedyByDegree(h)
    assert(color.distinct.length == n)
    val alive = CFCore.egoColorfulCore(h, 2, Array.fill(n)(true))
    assert(alive.forall(identity)) // K5 with 3/2 attrs: ED_0=3, ED_1=2 for all
  }
}
