package repro.core

import repro.graph.{AttributedGraph, BipartiteGraph, Coloring}

/** Colorful fair α-β core pruning (Alg 2 `CFCore`) and the bi-side variant
  * `BCFCore`.
  *
  * Pipeline (single-side): FCore on the input → compact graph of its
  * survivors → 2-hop graph H on the fair side (Alg 3) → degree prune
  * (< |A_V|·β − 1) → greedy colouring → ego colorful β-core peel (Defs
  * 9-10) → FCore again with the peeled V-vertices removed → compact graph
  * of what survives. Only the first peel reads the input graph.
  */
object CFCore {

  /** Ego colorful k-core (Def 10) of `h` restricted to `alive0`: peel while
    * some vertex has `min_a ED_a < k`, maintaining the per-vertex
    * (attribute × colour) multiplicity tables M_u exactly as Alg 2 does.
    *
    * @return surviving mask (subset of `alive0`)
    */
  def egoColorfulCore(h: AttributedGraph, k: Int, alive0: Array[Boolean]): Array[Boolean] = {
    val alive = alive0.clone()
    val hh    = h.restrict(alive)
    val color = Coloring.greedyByDegree(hh)
    val nCol  = math.max(1, Coloring.numColors(color))
    val nA    = h.nAttr

    // M(u)(a*nCol + c): #vertices of attribute a / colour c in N[u];
    // ED(u)(a): #distinct colours with M > 0 — the ego colorful degree.
    // Only vertices of `alive0` get rows: `hh` links no other vertex.
    val m  = Array.tabulate(h.n)(u => if (alive(u)) new Array[Int](nA * nCol) else null)
    val ed = Array.tabulate(h.n)(u => if (alive(u)) new Array[Int](nA) else null)
    for (u <- 0 until h.n if alive(u)) {
      val row = m(u)
      def add(w: Int): Unit = {
        val slot = h.attr(w) * nCol + color(w)
        if (row(slot) == 0) ed(u)(h.attr(w)) += 1
        row(slot) += 1
      }
      add(u)
      hh.adj(u).foreach(add)
    }

    val queue = scala.collection.mutable.Queue.empty[Int]
    for (u <- 0 until h.n if alive(u) && ed(u).min < k) { alive(u) = false; queue += u }
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      for (v <- hh.adj(u) if alive(v)) {
        val slot = h.attr(u) * nCol + color(u)
        m(v)(slot) -= 1
        if (m(v)(slot) <= 0) {
          ed(v)(h.attr(u)) -= 1
          if (ed(v).min < k) { alive(v) = false; queue += v }
        }
      }
    }
    alive
  }

  /** Alg 2 `CFCore` as alive masks over the ids of `g`. */
  def prune(g: BipartiteGraph, alpha: Int, beta: Int): FCore.Alive = lift(pruned(g, alpha, beta), g)

  /** `BCFCore` as alive masks over the ids of `g`. */
  def biPrune(g: BipartiteGraph, alpha: Int, beta: Int): FCore.Alive = lift(biPruned(g, alpha, beta), g)

  /** Alg 2 `CFCore`: FCore on `g`, then on the compact graph of its
    * survivors the 2-hop graph, the colourful side step and FCore again.
    * Returns the compact graph of what survives, with ids into `g`.
    */
  def pruned(g: BipartiteGraph, alpha: Int, beta: Int): BipartiteGraph.Compact = {
    val core1  = FCore.fairCore(g, alpha, beta)
    val c      = g.compact(core1.u, core1.v)
    val h      = c.graph
    val allU   = Array.fill(h.nU)(true)
    val allV   = Array.fill(h.nV)(true)
    val aliveV = colorfulSide(TwoHop.construct(h, alpha, allU, allV), beta, allV)
    val core2  = FCore.fairCore(h, alpha, beta, initU = Some(allU), initV = Some(aliveV))
    c.compact(core2.u, core2.v)
  }

  /** `BCFCore`: BFCore on `g`, then on the compact graph of its survivors
    * the colourful side step on the V-side bi-2-hop graph (Alg 8; k = β),
    * then on the U-side bi-2-hop graph of the transpose (k = α), then
    * BFCore again. Returns the compact graph of what survives.
    */
  def biPruned(g: BipartiteGraph, alpha: Int, beta: Int): BipartiteGraph.Compact = {
    val core1  = FCore.biFairCore(g, alpha, beta)
    val c      = g.compact(core1.u, core1.v)
    val h      = c.graph
    val allU   = Array.fill(h.nU)(true)
    val allV   = Array.fill(h.nV)(true)
    val aliveV = colorfulSide(TwoHop.biConstruct(h, alpha, allU, allV), beta, allV)
    val aliveU = colorfulSide(TwoHop.biConstruct(h.transpose, beta, aliveV, allU), alpha, allU)
    val core2  = FCore.biFairCore(h, alpha, beta, initU = Some(aliveU), initV = Some(aliveV))
    c.compact(core2.u, core2.v)
  }

  /** The survivors of `c` as masks over the ids of `g`: no edge is read. */
  private def lift(c: BipartiteGraph.Compact, g: BipartiteGraph): FCore.Alive =
    FCore.Alive(BipartiteGraph.mask(c.uIds, g.nU), BipartiteGraph.mask(c.vIds, g.nV))

  /** Alg 2 lines 4-8 on one side's 2-hop graph `h`. A fair biclique has
    * ≥ |A|·k vertices on this side, all pairwise adjacent in H, so a vertex
    * with fewer than |A|·k − 1 alive H-neighbours is out (one in-place pass
    * in id order); then the ego colorful k-core of what is left.
    */
  private def colorfulSide(h: AttributedGraph, k: Int, alive0: Array[Boolean]): Array[Boolean] = {
    val alive  = alive0.clone()
    val minDeg = h.nAttr * k - 1
    var v = 0
    while (v < h.n) {
      if (alive(v) && h.adj(v).count(alive(_)) < minDeg) alive(v) = false
      v += 1
    }
    egoColorfulCore(h, k, alive)
  }
}
