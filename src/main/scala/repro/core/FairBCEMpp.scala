package repro.core

import repro.graph.BipartiteGraph

/** `FairBCEM++` (Alg 6): enumerate maximal bicliques iMBEA-style (bulk
  * absorption of fully-connected candidates), then extract all single-side
  * fair bicliques from each via the `Combination` enumeration (Alg 7),
  * keeping `r'` only when `N(r') = L'`; that filter runs inside the
  * Combination walk (`FairSet.combinationOutside`).
  *
  * `proportional = true` gives `FairBCEMPro++`: the fair-set inspection and
  * the combination step use the proportion model (Def 5, `CombinationPro`).
  */
object FairBCEMpp {

  def enumerate(g0: BipartiteGraph, p: FairParams,
                ordering: VertexOrdering = VertexOrdering.DegOrd,
                proportional: Boolean = false): Vector[Biclique] = {
    val c = CFCore.pruned(g0, p.alpha, p.beta)
    new Searcher(c.graph, c.uIds, c.vIds, p, proportional).enumerate(ordering)
  }

  /** The iMBEA kernel with fair output at each maximal biclique and the
    * per-attribute β bound on the candidate pool (second half of
    * Observation 5), over the compact graph `g` (ids out through
    * `uIds`/`vIds`, see `RootSearch`). Root-parallel runs use Q = all
    * earlier roots, a superset of the sequential Q that is safe and
    * duplicate-free — see DESIGN.md §3.
    */
  final class Searcher(g: BipartiteGraph, uIds: Array[Int], vIds: Array[Int],
                       val p: FairParams, val proportional: Boolean) extends IMBEA(g, uIds, vIds, p.alpha) {

    private def this(c: BipartiteGraph.Compact, p: FairParams, proportional: Boolean) =
      this(c.graph, c.uIds, c.vIds, p, proportional)

    /** The search over the alive vertices of `g`, emitting the ids of `g`. */
    def this(g: BipartiteGraph, alive: FCore.Alive, p: FairParams, proportional: Boolean) =
      this(g.compact(alive.u, alive.v), p, proportional)

    private val fair = p.onV(g, proportional)

    protected def atMaximal(l1: Array[Int], r1: List[Int], rc1: Array[Int], out: Biclique => Unit): Unit =
      if (fair.isFair(rc1)) out(biclique(l1, r1)) else emitFairSubsets(l1, r1, out)

    protected def canGrow(rc1: Array[Int], ids: Array[Int], from: Int, to: Int): Boolean = {
      val potential = rc1.clone()
      var k = from
      while (k < to) { potential(g.attrV(ids(k))) += 1; k += 1 }
      potential.forall(_ >= p.beta)
    }

    /** Lines 26-28: enumerate the maximal fair subsets r' of R' (Alg 7 /
      * CombinationPro) and keep those whose common neighbourhood is exactly
      * L' (otherwise the same r' is found under a larger-L biclique): those
      * with no common neighbour outside L'. The kept ones share one L'.
      */
    private def emitFairSubsets(l1: Array[Int], r1: List[Int], out: Biclique => Unit): Unit = {
      val rs = r1.toArray
      java.util.Arrays.sort(rs)
      lazy val left = Vector.tabulate(l1.length)(i => outU(l1(i)))
      FairSet.combinationOutside(g, rs, l1, fair) { (walk, hit) =>
        if (!hit.contains(true)) out(Biclique(left, Vector.tabulate(walk.size)(d => outV(walk.member(d)))))
      }
    }
  }
}
