package repro.core

import repro.graph.{AttributedGraph, BipartiteGraph, Coloring}

/** Colorful fair α-β core pruning (Alg 2 `CFCore`) and the bi-side variant
  * `BCFCore`.
  *
  * Pipeline (single-side): FCore → 2-hop graph H on the fair side (Alg 3) →
  * degree prune (< |A_V|·β − 1) → greedy colouring → ego colorful β-core
  * peel (Defs 9-10) → remove peeled V-vertices from the bipartite graph →
  * FCore again.
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

  /** Alg 2 `CFCore`: FCore → 2-hop graph → colourful side step → FCore. */
  def prune(g: BipartiteGraph, alpha: Int, beta: Int): FCore.Alive = {
    val core1  = FCore.fairCore(g, alpha, beta)
    val aliveV = colorfulSide(TwoHop.construct(g, alpha, core1.u, core1.v), beta, core1.v)
    FCore.fairCore(g, alpha, beta, initU = Some(core1.u), initV = Some(aliveV))
  }

  /** `BCFCore`: bi-side pipeline — BFCore, then the colourful side step
    * on the V-side bi-2-hop graph (Alg 8; k = β), then on the U-side
    * bi-2-hop graph of `g.transpose` (k = α), then BFCore again.
    */
  def biPrune(g: BipartiteGraph, alpha: Int, beta: Int): FCore.Alive = {
    val core1  = FCore.biFairCore(g, alpha, beta)
    val aliveV = colorfulSide(TwoHop.biConstruct(g, alpha, core1.u, core1.v), beta, core1.v)
    val aliveU = colorfulSide(TwoHop.biConstruct(g.transpose, beta, aliveV, core1.u), alpha, core1.u)
    FCore.biFairCore(g, alpha, beta, initU = Some(aliveU), initV = Some(aliveV))
  }

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
