package repro.core

import repro.graph.{BipartiteGraph, SortedOps}

/** A search decomposed into independent *root subproblems*, one per
  * top-level V candidate with Q = the earlier roots. `DistEnum` runs the
  * roots as Spark tasks against a broadcast instance; `enumerate` runs them
  * in order and honours the C-set.
  *
  * `g` is a compact graph: every vertex takes part. A result is emitted
  * in the ids `uIds`/`vIds` give each vertex (null: the ids of `g`), which
  * are translated where the result is built. Roots and C-sets stay in the
  * ids of `g`.
  *
  * Thread-safe per call: `runRoot` allocates its mutable state; `allU` is
  * built on first use and only read after that. It is transient, so a
  * broadcast instance carries the graph and id maps only.
  */
abstract class RootSearch(val g: BipartiteGraph, uIds: Array[Int], vIds: Array[Int]) extends Serializable {

  /** Every U id, ascending: the L of every root. */
  @transient protected lazy val allU: Array[Int] = Array.range(0, g.nU)

  def roots(ordering: VertexOrdering): Array[Int] = ordering.order(Array.range(0, g.nV), g.degV)

  /** Run the subproblem rooted at `roots(i)`: R = {x}, L = N(x),
    * P = later roots, Q = earlier roots. Returns the C-set: later roots
    * whose subtrees this root has already covered.
    */
  def runRoot(roots: Array[Int], i: Int, out: Biclique => Unit): Array[Int]

  /** Sequential driver: every root in order, skipping retired ones. */
  def enumerate(ordering: VertexOrdering, out: Biclique => Unit): Unit = {
    val rs = roots(ordering)
    RootSearch.unretired(rs, 0, rs.length)(runRoot(rs, _, out))
  }

  def enumerate(ordering: VertexOrdering): Vector[Biclique] = {
    val out = Vector.newBuilder[Biclique]
    enumerate(ordering, out += _)
    out.result()
  }

  /** The emitted ids of U vertex `u` and V vertex `v`. */
  protected final def outU(u: Int): Int = RootSearch.id(uIds, u)
  protected final def outV(v: Int): Int = RootSearch.id(vIds, v)

  /** The biclique (l, r) in emitted ids; `l` is sorted. */
  protected final def biclique(l: Array[Int], r: List[Int]): Biclique = {
    val rs = r.toArray
    java.util.Arrays.sort(rs)
    Biclique(Vector.tabulate(l.length)(i => outU(l(i))), Vector.tabulate(rs.length)(i => outV(rs(i))))
  }
}

object RootSearch {

  /** Vertex `x` under the id map `ids` (null: `x` itself). */
  private[core] def id(ids: Array[Int], x: Int): Int = if (ids == null) x else ids(x)

  /** Alg 6 lines 31-32: run `branch(j)` for each `vs(j)`, `from <= j < to`,
    * that no earlier branch returned in its C-set (those subtrees would be
    * duplicates).
    */
  private[core] def unretired(vs: Array[Int], from: Int, to: Int)(branch: Int => Array[Int]): Unit = {
    val skip = new java.util.HashSet[Integer]()
    var j = from
    while (j < to) {
      if (!skip.contains(vs(j))) branch(j).foreach(v => skip.add(v))
      j += 1
    }
  }
}

/** The iMBEA recursion of [6]: enumerate maximal bicliques with |L| ≥
  * `minL`, absorbing fully-connected candidates into R in bulk.
  * Subclasses decide what a maximal biclique yields (`atMaximal`) and
  * whether a candidate pool can still lead to output (`canGrow`).
  *
  * A node counts |N(v) ∩ L'| for all its candidates in one pass over the
  * U side of L' (each u ∈ L' adds 1 to its marked V-neighbours) instead of
  * merging every candidate's adjacency with L'. Candidates are marked by
  * id in a scratch array of |V| slots allocated per `runRoot`, so
  * concurrent roots share nothing mutable.
  */
abstract class IMBEA(g: BipartiteGraph, uIds: Array[Int], vIds: Array[Int], minL: Int)
    extends RootSearch(g, uIds, vIds) {

  /** Called once per maximal biclique (L', R'); `rc` counts R' per V attribute. */
  protected def atMaximal(l: Array[Int], r: List[Int], rc: Array[Int], out: Biclique => Unit): Unit

  /** May extending R (counts `rc`) by the candidates `ids(from until to)` still give output? */
  protected def canGrow(rc: Array[Int], ids: Array[Int], from: Int, to: Int): Boolean

  /** A root's candidates count their whole neighbourhood: L = U. */
  def runRoot(roots: Array[Int], i: Int, out: Biclique => Unit): Array[Int] = {
    val cntL = new Array[Int](roots.length)
    var k = i + 1
    while (k < roots.length) { cntL(k) = g.degV(roots(k)); k += 1 }
    processNode(roots, cntL, i, roots.length, allU, Nil, new Array[Int](g.nAttrV),
                new Array[Int](g.nV), out)
  }

  /** One search node for branching vertex `x = ids(xi)`, with Q =
    * `ids(0 until xi)` and P = `ids(xi+1 until end)`; `cntL(k)` is
    * |N(ids(k)) ∩ L| for the P candidates. `slot` is the all-zero mark
    * array of this root. Returns C (x plus absorbed candidates with no
    * neighbours outside L', Alg 6 line 21) for the caller to retire.
    *
    * The children share one buffer: the Q survivors, then the kept P
    * candidates in order; child j has Q' = `0 until j`, x = `j` and
    * P' = `j+1 until` its end.
    */
  private def processNode(ids: Array[Int], cntL: Array[Int], xi: Int, end: Int,
                          l: Array[Int], r: List[Int], rc: Array[Int],
                          slot: Array[Int], out: Biclique => Unit): Array[Int] = {
    val x  = ids(xi)
    val l1 = SortedOps.intersect(l, g.adjV(x))
    if (l1.length < minL || l1.isEmpty) return Array(x)

    // Counting pass: cnt(k) = |N(ids(k)) ∩ L'| for every candidate.
    val cnt = new Array[Int](end)
    var k = 0
    while (k < end) { slot(ids(k)) = k + 1; k += 1 }
    var i = 0
    while (i < l1.length) {
      val ws = g.adjU(l1(i))
      var j  = 0
      while (j < ws.length) {
        val s = slot(ws(j))
        if (s > 0) cnt(s - 1) += 1
        j += 1
      }
      i += 1
    }
    k = 0
    while (k < end) { slot(ids(k)) = 0; k += 1 }

    // Maximality of the biclique: any visited vertex fully connected to
    // L' means this biclique (and every descendant) was found before.
    k = 0
    while (k < xi) { if (cnt(k) == l1.length) return Array(x); k += 1 }

    // The children's buffer, its counts compacted into `cnt` in place:
    // Q survivors with a neighbour in L', then the P candidates.
    val ids1 = new Array[Int](end - 1)
    var n    = 0
    k = 0
    while (k < xi) {
      if (cnt(k) > 0) { ids1(n) = ids(k); cnt(n) = cnt(k); n += 1 }
      k += 1
    }
    val q1 = n

    // Bulk absorption: move candidates fully connected to L' into R';
    // those with no neighbour in L \ L' can never seed a new maximal
    // biclique later (their N ⊆ L') and join the C-set.
    var cSet = List(x)
    var r1   = x :: r
    val rc1  = rc.clone(); rc1(g.attrV(x)) += 1
    k = xi + 1
    while (k < end) {
      val v = ids(k)
      val c = cnt(k)
      if (c == l1.length) {
        r1 = v :: r1
        rc1(g.attrV(v)) += 1
        if (cntL(k) == c) cSet = v :: cSet // N(v)∩(L\L') = ∅
      } else if (c >= minL) { ids1(n) = v; cnt(n) = c; n += 1 }
      k += 1
    }

    atMaximal(l1, r1, rc1, out)

    if (n > q1 && canGrow(rc1, ids1, q1, n))
      RootSearch.unretired(ids1, q1, n)(j => processNode(ids1, cnt, j, n, l1, r1, rc1, slot, out))
    cSet.toArray
  }
}
