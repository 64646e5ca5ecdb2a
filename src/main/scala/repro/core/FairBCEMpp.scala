package repro.core

import repro.graph.BipartiteGraph

/** `FairBCEM++` (Alg 6): enumerate maximal bicliques iMBEA-style (bulk
  * absorption of fully-connected candidates), then extract all single-side
  * fair bicliques from each via the `Combination` enumeration (Alg 7),
  * keeping `r'` only when `N(r') = L'`; that filter runs inside the
  * Combination walk, on bitsets shared by the walk's prefixes.
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

  /** Enumerate on the alive vertices of `g` (ids of `g` out). */
  def enumerateOn(g: BipartiteGraph, alive: FCore.Alive, p: FairParams,
                  ordering: VertexOrdering, proportional: Boolean): Vector[Biclique] =
    new Searcher(g, alive, p, proportional).enumerate(ordering)

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

    protected def atMaximal(l1: Array[Int], r1: List[Int], rc1: Array[Int], out: Biclique => Unit): Unit = {
      val fair =
        if (proportional) FairSet.isProportionFairCounts(rc1, p.beta, p.delta, p.theta)
        else FairSet.isFairCounts(rc1, p.beta, p.delta)
      if (fair) out(biclique(l1, r1)) else emitFairSubsets(l1, r1, out)
    }

    protected def canGrow(rc1: Array[Int], ids: Array[Int], from: Int, to: Int): Boolean = {
      val potential = rc1.clone()
      var k = from
      while (k < to) { potential(g.attrV(ids(k))) += 1; k += 1 }
      potential.forall(_ >= p.beta)
    }

    /** Lines 26-28: enumerate the maximal fair subsets r' of R' (Alg 7 /
      * CombinationPro) and keep those whose common neighbourhood is exactly
      * L' (otherwise the same r' is found under a larger-L biclique).
      *
      * r' has N(r') = L' iff the sets N(v) \ L' of its members have an
      * empty intersection. They are bitsets over the union of those outside
      * neighbours, and the filter runs inside the Combination walk: one
      * running AND per depth, recomputed only from the depth the walk
      * changed. Once a prefix's AND is empty every completion is kept with
      * no further test; a rejected r' allocates nothing, and the kept ones
      * share one L'.
      */
    private def emitFairSubsets(l1: Array[Int], r1: List[Int], out: Biclique => Unit): Unit = {
      val rs = r1.toArray
      java.util.Arrays.sort(rs)
      val walk = FairSet.walk(rs, rs.map(g.attrV), g.nAttrV, p.beta, p.delta,
                              if (proportional) Some(p.theta) else None)
      if (walk == null) return

      // Outside neighbours of each member, indexed by rank in their union.
      val ext  = rs.map(v => diffSorted(g.adjV(v), l1))
      val outs = ext.flatten
      java.util.Arrays.sort(outs)
      val nOut = dedup(outs)
      val nw   = (nOut + 63) >>> 6
      val bits = new Array[Long](rs.length * nw)
      var i = 0
      while (i < rs.length) {
        ext(i).foreach { u =>
          val b = java.util.Arrays.binarySearch(outs, 0, nOut, u)
          bits(i * nw + (b >>> 6)) |= 1L << b
        }
        i += 1
      }

      // and(d) (words d*nw until (d+1)*nw) is the AND over the members at
      // depths below d; `empty` is the shallowest depth where it is empty.
      val size  = walk.size
      val and   = new Array[Long]((size + 1) * nw)
      java.util.Arrays.fill(and, 0, nw, -1L)
      var empty = if (nw == 0) 0 else size + 1
      val left  = Vector.tabulate(l1.length)(i => outU(l1(i)))
      var from  = 0
      while (from >= 0) {
        if (empty > from) {
          empty = size + 1
          var d = from
          while (d < size && empty > size) {
            val m = walk.pos(d) * nw
            var any = 0L
            var w   = 0
            while (w < nw) {
              val x = and(d * nw + w) & bits(m + w)
              and((d + 1) * nw + w) = x
              any |= x
              w += 1
            }
            if (any == 0L) empty = d + 1
            d += 1
          }
        }
        if (empty <= size) out(Biclique(left, Vector.tabulate(size)(d => outV(rs(walk.pos(d))))))
        from = walk.advance()
      }
    }

    /** Drops repeats from sorted `a` in place; returns the distinct count. */
    private def dedup(a: Array[Int]): Int = {
      var n = 0; var i = 0
      while (i < a.length) { if (n == 0 || a(n - 1) != a(i)) { a(n) = a(i); n += 1 }; i += 1 }
      n
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
