package repro.core

import repro.graph.{BipartiteGraph, SortedOps}

/** Branch-and-bound single-side fair biclique enumeration (Alg 5
  * `FairBCEM`) and its naive variant `NSF` (same search tree with
  * Observations 2/4/5 disabled, as defined in §V-A).
  *
  * The search is decomposed into independent *root subproblems* (one per
  * top-level candidate vertex, with Q = the earlier roots), as FairBCEM++
  * is for `repro.spark.DistEnum`.
  */
object FairBCEM {

  /** Thrown when a search exceeds its wall-clock budget — the bench
    * harnesses catch it and report "INF" like the paper's 24h limit.
    */
  final class SearchTimeout(msg: String) extends RuntimeException(msg)

  /** Enumerate all SSFBCs of `g0`: CFCore pruning then branch and bound.
    *
    * @param timeoutMs 0 = unlimited; otherwise a `SearchTimeout` is thrown
    *                  once the wall clock budget is exceeded.
    */
  def enumerate(g0: BipartiteGraph, p: FairParams,
                ordering: VertexOrdering = VertexOrdering.DegOrd,
                naive: Boolean = false, timeoutMs: Long = 0): Vector[Biclique] = {
    val c = CFCore.pruned(g0, p.alpha, p.beta)
    new Searcher(c.graph, c.uIds, c.vIds, p, naive, deadline(timeoutMs)).enumerate(ordering)
  }

  /** `enumerate` that returns None instead of throwing on timeout. */
  def enumerateOpt(g0: BipartiteGraph, p: FairParams, ordering: VertexOrdering,
                   naive: Boolean, timeoutMs: Long): Option[Vector[Biclique]] =
    try Some(enumerate(g0, p, ordering, naive, timeoutMs))
    catch { case _: SearchTimeout => None }

  /** The `System.nanoTime` deadline of a budget of `timeoutMs` (0: none). */
  private[core] def deadline(timeoutMs: Long): Long =
    if (timeoutMs <= 0) Long.MaxValue else System.nanoTime() + timeoutMs * 1000000L

  /** One search instance over a fixed compact graph (ids out through
    * `uIds`/`vIds`, see `RootSearch`). Alg 5 has no C-set: `runRoot`
    * always returns an empty one, so the sequential driver runs every root.
    *
    * Nodes use the candidate layout of `IMBEA` but keep Alg 5's own
    * counting (one sorted intersection per candidate), so the two searches
    * stay independent cross-checks of each other.
    */
  final class Searcher(g: BipartiteGraph, uIds: Array[Int], vIds: Array[Int],
                       val p: FairParams, val naive: Boolean,
                       val deadlineNanos: Long) extends RootSearch(g, uIds, vIds) {

    def runRoot(roots: Array[Int], i: Int, out: Biclique => Unit): Array[Int] = {
      processNode(roots, i, roots.length, allU, Nil, new Array[Int](g.nAttrV), out)
      Array.emptyIntArray
    }

    /** Lines 7-28 of Alg 5 for branching vertex `x = ids(xi)`, with Q =
      * `ids(0 until xi)` (visited) and P = `ids(xi+1 until end)`
      * (candidates after `x` in branching order).
      *
      * The children share one buffer: the Q survivors, then the kept P
      * candidates in order; child j has Q' = `0 until j`, x = `j` and
      * P' = `j+1 until` its end.
      *
      * @param l  current L (sorted U ids, common neighbours of `r`)
      * @param r  current R (V ids), `rc` its per-attribute counts
      */
    private def processNode(ids: Array[Int], xi: Int, end: Int, l: Array[Int], r: List[Int],
                            rc: Array[Int], out: Biclique => Unit): Unit = {
      if (System.nanoTime() > deadlineNanos)
        throw new SearchTimeout(s"FairBCEM${if (naive) " (NSF)" else ""} exceeded its time budget")
      val x  = ids(xi)
      val l1 = SortedOps.intersect(l, g.adjV(x))
      // Structural cut even for NSF: an empty L admits no biclique below.
      // Observation 5 (first half): |L'| < α kills the whole branch.
      if (l1.isEmpty || (!naive && l1.length < p.alpha)) return

      // Q: fully-connected visited vertices per attribute (for maximality),
      // survivors into the children's buffer.
      val keep = if (naive) 1 else p.alpha
      val buf  = new Array[Int](end - 1)
      val qFC  = new Array[Int](g.nAttrV)
      val q1   = scan(ids, 0, xi, l1, keep, qFC, buf, 0)
      // Observation 2: one addable visited vertex per attribute ⇒ nothing
      // in this subtree can be maximal.
      if (!naive && qFC.forall(_ > 0)) return

      // P: the kept candidates follow the Q survivors in `buf(q1 until n)`.
      val pFC   = new Array[Int](g.nAttrV)
      val n     = scan(ids, xi + 1, end, l1, keep, pFC, buf, q1)
      val rc1   = rc.clone(); rc1(g.attrV(x)) += 1
      val rcAll = Array.tabulate(g.nAttrV)(a => rc1(a) + pFC(a))

      // Observation 4: every kept candidate is fully connected — absorb them
      // all if the union stays fair (then the recursion is unnecessary).
      val absorb = !naive && pFC.sum == n - q1 && FairSet.isFairCounts(rcAll, p.beta, p.delta)
      val (r2, rc2, end2) =
        if (absorb) ((q1 until n).foldLeft(x :: r)((acc, k) => buf(k) :: acc), rcAll, q1)
        else (x :: r, rc1, n)

      // Output check (lines 24-26): R' fair and maximal among the
      // fully-connected extension pool R' ∪ P^FC ∪ Q^FC, whose counts are
      // `rcAll + qFC` whether or not P^FC was absorbed.
      val pool = Array.tabulate(g.nAttrV)(a => rcAll(a) + qFC(a))
      if (l1.length >= p.alpha && FairSet.isMaximalFairSubsetCounts(pool, rc2, p.beta, p.delta))
        out(biclique(l1, r2))

      // Recurse (line 27): candidate pool must still be able to reach β
      // per attribute (second half of Observation 5).
      if (end2 > q1) {
        val potential = rc2.clone()
        (q1 until end2).foreach(k => potential(g.attrV(buf(k))) += 1)
        if (naive || potential.forall(_ >= p.beta))
          (q1 until end2).foreach(processNode(buf, _, end2, l1, r2, rc2, out))
      }
    }

    /** Append each of `ids(from until to)` with at least `keep` neighbours
      * in `l` to `buf` from index `n` on, and count those adjacent to all of
      * `l` per attribute in `fc`. Returns the new end of `buf`.
      */
    private def scan(ids: Array[Int], from: Int, to: Int, l: Array[Int], keep: Int,
                     fc: Array[Int], buf: Array[Int], n: Int): Int = {
      var m = n
      var k = from
      while (k < to) {
        val v   = ids(k)
        val cnt = SortedOps.intersectSize(g.adjV(v), l)
        if (cnt == l.length) fc(g.attrV(v)) += 1
        if (cnt >= keep) { buf(m) = v; m += 1 }
        k += 1
      }
      m
    }
  }
}
