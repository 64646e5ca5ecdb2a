package repro.core

import repro.graph.{BipartiteGraph, SortedOps}

/** Branch-and-bound single-side fair biclique enumeration (Alg 5
  * `FairBCEM`) and its naive variant `NSF` (same search tree with
  * Observations 2/4/5 disabled, as defined in §V-A).
  *
  * The search is decomposed into independent *root subproblems* (one per
  * top-level candidate vertex, with Q = the earlier roots), which is what
  * `repro.spark.DistEnum` parallelises across Spark tasks.
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
    val alive = CFCore.prune(g0, p.alpha, p.beta)
    enumerateOn(g0.restrict(alive.u, alive.v), alive, p, ordering, naive, timeoutMs)
  }

  /** `enumerate` that returns None instead of throwing on timeout. */
  def enumerateOpt(g0: BipartiteGraph, p: FairParams, ordering: VertexOrdering,
                   naive: Boolean, timeoutMs: Long): Option[Vector[Biclique]] =
    try Some(enumerate(g0, p, ordering, naive, timeoutMs))
    catch { case _: SearchTimeout => None }

  /** Enumerate on an already-pruned graph (alive masks tell which vertices
    * participate); used by `BiFair` and `DistEnum` which prune separately.
    */
  def enumerateOn(g: BipartiteGraph, alive: FCore.Alive, p: FairParams,
                  ordering: VertexOrdering, naive: Boolean,
                  timeoutMs: Long = 0): Vector[Biclique] = {
    val deadline = if (timeoutMs <= 0) Long.MaxValue else System.nanoTime() + timeoutMs * 1000000L
    new Searcher(g, alive, p, naive, deadline).enumerate(ordering)
  }

  /** One search instance over a fixed pruned graph. Alg 5 has no C-set:
    * `runRoot` always returns an empty one, so the sequential driver runs
    * every root.
    */
  final class Searcher(g: BipartiteGraph, alive: FCore.Alive,
                       val p: FairParams, val naive: Boolean,
                       val deadlineNanos: Long = Long.MaxValue) extends RootSearch(g, alive) {

    def runRoot(roots: Array[Int], i: Int, out: Biclique => Unit): Array[Int] = {
      processNode(roots(i), allU, Nil, new Array[Int](g.nAttrV),
                  roots.drop(i + 1), roots.take(i), out)
      Array.emptyIntArray
    }

    /** Lines 7-28 of Alg 5 for branching vertex `x`.
      *
      * @param l  current L (sorted U ids, common neighbours of `r`)
      * @param r  current R (V ids), `rc` its per-attribute counts
      * @param pRest candidates after `x` in branching order
      * @param q  visited vertices
      */
    private def processNode(x: Int, l: Array[Int], r: List[Int], rc: Array[Int],
                            pRest: Array[Int], q: Array[Int], out: Biclique => Unit): Unit = {
      if (System.nanoTime() > deadlineNanos)
        throw new SearchTimeout(s"FairBCEM${if (naive) " (NSF)" else ""} exceeded its time budget")
      val r1  = x :: r
      val rc1 = rc.clone(); rc1(g.attrV(x)) += 1
      val l1  = SortedOps.intersect(l, g.adjV(x))

      // Structural cut even for NSF: an empty L admits no biclique below.
      if (l1.isEmpty) return
      // Observation 5 (first half): |L'| < α kills the whole branch.
      var flag = true
      if (!naive && l1.length < p.alpha) flag = false

      // Q maintenance: fully-connected visited vertices (for maximality)
      // and the surviving visited set Q' for the recursion.
      val qFC     = new scala.collection.mutable.ArrayBuffer[Int]()
      val q1      = new scala.collection.mutable.ArrayBuffer[Int]()
      val qFCattr = new Array[Boolean](g.nAttrV)
      val qKeep   = if (naive) 1 else p.alpha
      var qi = 0
      while (qi < q.length) {
        val u   = q(qi)
        val cnt = SortedOps.intersectSize(g.adjV(u), l1)
        if (cnt == l1.length) { qFC += u; qFCattr(g.attrV(u)) = true }
        if (cnt >= qKeep) q1 += u
        qi += 1
      }
      // Observation 2: one addable visited vertex per attribute ⇒ nothing
      // in this subtree can be maximal.
      if (!naive && qFCattr.forall(identity)) flag = false

      if (flag) {
        val pFC  = new scala.collection.mutable.ArrayBuffer[Int]()
        val p1   = new scala.collection.mutable.ArrayBuffer[Int]()
        val pKeep = if (naive) 1 else p.alpha
        var pi = 0
        while (pi < pRest.length) {
          val v   = pRest(pi)
          val cnt = SortedOps.intersectSize(g.adjV(v), l1)
          if (cnt == l1.length) pFC += v
          if (cnt >= pKeep) p1 += v
          pi += 1
        }

        var r2   = r1
        var rc2  = rc1
        var pFC2 = pFC
        var p2   = p1
        if (!naive && pFC.length == p1.length) {
          // Observation 4: every candidate is fully connected — absorb them
          // all if the union stays fair (then the recursion is unnecessary).
          val mergedCounts = rc1.clone()
          pFC.foreach(v => mergedCounts(g.attrV(v)) += 1)
          if (FairSet.isFairCounts(mergedCounts, p.beta, p.delta)) {
            r2 = pFC.foldLeft(r1)((acc, v) => v :: acc)
            rc2 = mergedCounts
            pFC2 = scala.collection.mutable.ArrayBuffer.empty[Int]
            p2 = scala.collection.mutable.ArrayBuffer.empty[Int]
          }
        }

        // Output check (lines 24-26): R' fair and maximal among the
        // fully-connected extension pool R' ∪ P^FC ∪ Q^FC.
        if (l1.length >= p.alpha && FairSet.isFairCounts(rc2, p.beta, p.delta)) {
          val poolCounts = rc2.clone()
          pFC2.foreach(v => poolCounts(g.attrV(v)) += 1)
          qFC.foreach(v => poolCounts(g.attrV(v)) += 1)
          if (FairSet.isMaximalFairSubsetCounts(poolCounts, rc2, p.beta, p.delta))
            out(Biclique.of(l1, r2))
        }

        // Recurse (line 27): candidate pool must still be able to reach β
        // per attribute (second half of Observation 5).
        if (p2.nonEmpty) {
          val potential = rc2.clone()
          p2.foreach(v => potential(g.attrV(v)) += 1)
          if (naive || potential.forall(_ >= p.beta)) {
            var pp = p2.toArray
            var qq = q1
            var j  = 0
            while (j < pp.length) {
              processNode(pp(j), l1, r2, rc2, pp.drop(j + 1), qq.toArray :++ pp.take(j), out)
              j += 1
            }
          }
        }
      }
    }
  }
}
