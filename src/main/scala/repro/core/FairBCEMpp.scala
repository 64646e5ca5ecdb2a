package repro.core

import repro.graph.{BipartiteGraph, SortedOps}

/** `FairBCEM++` (Alg 6): enumerate maximal bicliques iMBEA-style (bulk
  * absorption of fully-connected candidates), then extract all single-side
  * fair bicliques from each via the `Combination` enumeration (Alg 7),
  * keeping `r'` only when `N(r') = L'`.
  *
  * `proportional = true` gives `FairBCEMPro++`: the fair-set inspection and
  * the combination step use the proportion model (Def 5, `CombinationPro`).
  */
object FairBCEMpp {

  def enumerate(g0: BipartiteGraph, p: FairParams,
                ordering: VertexOrdering = VertexOrdering.DegOrd,
                proportional: Boolean = false): Vector[Biclique] = {
    val alive = CFCore.prune(g0, p.alpha, p.beta)
    enumerateOn(g0.restrict(alive.u, alive.v), alive, p, ordering, proportional)
  }

  def enumerateOn(g: BipartiteGraph, alive: FCore.Alive, p: FairParams,
                  ordering: VertexOrdering, proportional: Boolean): Vector[Biclique] =
    new Searcher(g, alive, p, proportional).enumerate(ordering)

  /** The iMBEA kernel with fair output at each maximal biclique and the
    * per-attribute β bound on the candidate pool (second half of
    * Observation 5). Root-parallel runs use Q = all earlier roots, a
    * superset of the sequential Q that is safe and duplicate-free — see
    * DESIGN.md §3.
    */
  final class Searcher(g: BipartiteGraph, alive: FCore.Alive,
                       val p: FairParams, val proportional: Boolean) extends IMBEA(g, alive, p.alpha) {

    protected def atMaximal(l1: Array[Int], r1: List[Int], rc1: Array[Int], out: Biclique => Unit): Unit = {
      val fair =
        if (proportional) FairSet.isProportionFairCounts(rc1, p.beta, p.delta, p.theta)
        else FairSet.isFairCounts(rc1, p.beta, p.delta)
      if (fair) out(Biclique.of(l1, r1)) else emitFairSubsets(l1, r1, out)
    }

    protected def canGrow(rc1: Array[Int], ids: Array[Int], from: Int, to: Int): Boolean = {
      val potential = rc1.clone()
      var k = from
      while (k < to) { potential(g.attrV(ids(k))) += 1; k += 1 }
      potential.forall(_ >= p.beta)
    }

    /** Lines 26-28: enumerate maximal fair subsets r' of R' (Alg 7 /
      * CombinationPro) and keep those whose common neighbourhood is exactly
      * L' (otherwise the same r' is found under a larger-L biclique).
      */
    private def emitFairSubsets(l1: Array[Int], r1: List[Int], out: Biclique => Unit): Unit = {
      val combos = FairSet.maximalFairSubsets(r1, g.attrV, g.nAttrV, p.beta, p, proportional)
      if (!combos.hasNext) return

      // ext(v) = N(v) \ L' — r' has N(r') = L' iff the ext sets of its
      // members have empty intersection.
      val ext = new java.util.HashMap[Integer, Array[Int]]()
      r1.foreach(v => ext.put(v, diffSorted(g.adjV(v), l1)))

      combos.foreach { rPrime =>
        var acc: Array[Int] = null
        var k = 0
        var nonEmpty = true
        while (k < rPrime.length && nonEmpty) {
          val e = ext.get(rPrime(k))
          acc = if (acc == null) e else SortedOps.intersect(acc, e)
          if (acc.isEmpty) nonEmpty = false
          k += 1
        }
        if (!nonEmpty || (acc != null && acc.isEmpty)) out(Biclique.of(l1, rPrime))
      }
    }

    private def diffSorted(a: Array[Int], b: Array[Int]): Array[Int] = {
      val outA = new Array[Int](a.length)
      var i = 0; var j = 0; var k = 0
      while (i < a.length) {
        while (j < b.length && b(j) < a(i)) j += 1
        if (j >= b.length || b(j) != a(i)) { outA(k) = a(i); k += 1 }
        i += 1
      }
      java.util.Arrays.copyOf(outA, k)
    }
  }
}
