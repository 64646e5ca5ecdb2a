package repro.core

import repro.graph.BipartiteGraph

/** Fair α-β core pruning (Alg 1 `FCore`) and the bi-side variant `BFCore`
  * (Def 13), as linear-time peeling over the in-memory graph.
  *
  * Both return alive masks over the ids of the graph they peel. The
  * pruners run the first peel on the input and go on with the compact
  * graph of its survivors (`BipartiteGraph.compact`), so no later stage
  * walks the input's id space.
  */
object FCore {

  /** Result of a peel: which vertices of each side survive. */
  final case class Alive(u: Array[Boolean], v: Array[Boolean]) {
    def countU: Int = u.count(identity)
    def countV: Int = v.count(identity)
  }

  /** Fair α-β core (Def 8): peel U-vertices whose minimum attribute degree
    * (over V-attributes) drops below β, and V-vertices whose degree drops
    * below α. Runs in O(E + V) like the classic core decomposition.
    *
    * @param initU optional starting alive mask for U (vertices already
    *              pruned by an earlier phase); same for `initV`. Without
    *              one, a side starts from the vertices whose plain degree
    *              reaches the sum of its class thresholds: a superset of
    *              the core, so the peel reaches the same unique core.
    */
  def fairCore(g: BipartiteGraph, alpha: Int, beta: Int,
               initU: Option[Array[Boolean]] = None,
               initV: Option[Array[Boolean]] = None): Alive =
    peel(g, alpha, beta, new Array[Int](g.nU), 1, initU, initV)

  /** Bi-fair α-β core (Def 13, `BFCore`): like `fairCore` but V-vertices are
    * peeled on their minimum attribute degree over U-attributes (< α).
    */
  def biFairCore(g: BipartiteGraph, alpha: Int, beta: Int,
                 initU: Option[Array[Boolean]] = None,
                 initV: Option[Array[Boolean]] = None): Alive =
    peel(g, alpha, beta, g.attrU, g.nAttrU, initU, initV)

  /** The peel of both cores. U-vertices need ≥ β alive neighbours of every
    * V attribute; V-vertices need ≥ α alive neighbours of every class of
    * `classU` (one class: plain degree; the U attributes: Def 13).
    */
  private def peel(g: BipartiteGraph, alpha: Int, beta: Int, classU: Array[Int], nClassU: Int,
                   initU: Option[Array[Boolean]], initV: Option[Array[Boolean]]): Alive = {
    val nA     = g.nAttrV
    // The degree seed: neither pass below reads the adjacency of a vertex
    // whose plain degree already rules it out.
    val aliveU = initU.map(_.clone()).getOrElse(degreeSeed(g.adjU, nA * beta))
    val aliveV = initV.map(_.clone()).getOrElse(degreeSeed(g.adjV, nClassU * alpha))

    // degU(u·nA + a): alive V-neighbours of u with attribute a;
    // degV(v·nClassU + c): alive U-neighbours of v in class c.
    val degU = new Array[Int](g.nU * nA)
    val degV = new Array[Int](g.nV * nClassU)
    var u = 0
    while (u < g.nU) {
      if (aliveU(u)) {
        val ns = g.adjU(u); var j = 0
        while (j < ns.length) { if (aliveV(ns(j))) degU(u * nA + g.attrV(ns(j))) += 1; j += 1 }
      }
      u += 1
    }
    var v = 0
    while (v < g.nV) {
      if (aliveV(v)) {
        val ns = g.adjV(v); var j = 0
        while (j < ns.length) { if (aliveU(ns(j))) degV(v * nClassU + classU(ns(j))) += 1; j += 1 }
      }
      v += 1
    }

    // Removed vertices, U as u and V as nU + v; each enters once.
    val queue = new Array[Int](count(aliveU) + count(aliveV))
    var tail  = 0
    def below(deg: Array[Int], row: Int, n: Int, k: Int): Boolean = {
      var c = 0
      while (c < n && deg(row * n + c) >= k) c += 1
      c < n
    }
    u = 0
    while (u < g.nU) {
      if (aliveU(u) && below(degU, u, nA, beta)) { aliveU(u) = false; queue(tail) = u; tail += 1 }
      u += 1
    }
    v = 0
    while (v < g.nV) {
      if (aliveV(v) && below(degV, v, nClassU, alpha)) { aliveV(v) = false; queue(tail) = g.nU + v; tail += 1 }
      v += 1
    }

    // An alive vertex has every class count at or above its threshold, so
    // only the decremented class can drop it below.
    var head = 0
    while (head < tail) {
      val x = queue(head); head += 1
      if (x < g.nU) {
        val ns = g.adjU(x); var j = 0
        while (j < ns.length) {
          val w = ns(j); val i = w * nClassU + classU(x)
          if (aliveV(w)) {
            degV(i) -= 1
            if (degV(i) < alpha) { aliveV(w) = false; queue(tail) = g.nU + w; tail += 1 }
          }
          j += 1
        }
      } else {
        val ns = g.adjV(x - g.nU); val a = g.attrV(x - g.nU); var j = 0
        while (j < ns.length) {
          val w = ns(j); val i = w * nA + a
          if (aliveU(w)) {
            degU(i) -= 1
            if (degU(i) < beta) { aliveU(w) = false; queue(tail) = w; tail += 1 }
          }
          j += 1
        }
      }
    }
    Alive(aliveU, aliveV)
  }

  /** The vertices with at least `k` neighbours. */
  private def degreeSeed(adj: Array[Array[Int]], k: Int): Array[Boolean] = {
    val alive = new Array[Boolean](adj.length)
    var x = 0
    while (x < adj.length) { alive(x) = adj(x).length >= k; x += 1 }
    alive
  }

  private def count(mask: Array[Boolean]): Int = {
    var n = 0; var x = 0
    while (x < mask.length) { if (mask(x)) n += 1; x += 1 }
    n
  }
}
