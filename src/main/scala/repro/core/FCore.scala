package repro.core

import repro.graph.BipartiteGraph

/** Fair α-β core pruning (Alg 1 `FCore`) and the bi-side variant `BFCore`
  * (Def 13), as linear-time peeling over the in-memory graph.
  *
  * Both return alive masks rather than rebuilt graphs so callers can chain
  * prunes cheaply and only materialise (`BipartiteGraph.restrict`) once.
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
    *              pruned by an earlier phase); same for `initV`.
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
    val aliveU = initU.map(_.clone()).getOrElse(Array.fill(g.nU)(true))
    val aliveV = initV.map(_.clone()).getOrElse(Array.fill(g.nV)(true))
    val nA     = g.nAttrV

    // degU(u·nA + a): alive V-neighbours of u with attribute a;
    // degV(v·nClassU + c): alive U-neighbours of v in class c.
    val degU = new Array[Int](g.nU * nA)
    val degV = new Array[Int](g.nV * nClassU)
    var u = 0
    while (u < g.nU) {
      if (aliveU(u)) g.adjU(u).foreach(v => if (aliveV(v)) degU(u * nA + g.attrV(v)) += 1)
      u += 1
    }
    var v = 0
    while (v < g.nV) {
      if (aliveV(v)) g.adjV(v).foreach(w => if (aliveU(w)) degV(v * nClassU + classU(w)) += 1)
      v += 1
    }

    // Removed vertices, U as u and V as nU + v; each enters once.
    val queue = new Array[Int](g.nU + g.nV)
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
}
