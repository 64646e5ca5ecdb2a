package repro.core

import repro.graph.{BipartiteGraph, SortedOps}

/** A search decomposed into independent *root subproblems*, one per
  * top-level V candidate with Q = the earlier roots. `DistEnum` runs the
  * roots as Spark tasks against a broadcast instance; `enumerate` runs them
  * in order and honours the C-set.
  *
  * Thread-safe per call: `runRoot` allocates its mutable state; the id
  * arrays are built on first use and only read after that. They are
  * transient, so a broadcast instance carries the graph and masks only.
  */
abstract class RootSearch(val g: BipartiteGraph, val alive: FCore.Alive) extends Serializable {

  /** Alive U ids, ascending: the L of every root. */
  @transient protected lazy val allU: Array[Int] = RootSearch.ids(alive.u)

  /** Alive V ids, ascending: the roots before ordering. */
  @transient protected lazy val allV: Array[Int] = RootSearch.ids(alive.v)

  def roots(ordering: VertexOrdering): Array[Int] = ordering.order(allV, g.degV)

  /** Run the subproblem rooted at `roots(i)`: R = {x}, L = N(x) ∩ Û,
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
}

object RootSearch {

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

  /** The ids set in `mask`, ascending. */
  private[core] def ids(mask: Array[Boolean]): Array[Int] = {
    var n = 0; var i = 0
    while (i < mask.length) { if (mask(i)) n += 1; i += 1 }
    val out = new Array[Int](n)
    n = 0; i = 0
    while (i < mask.length) { if (mask(i)) { out(n) = i; n += 1 }; i += 1 }
    out
  }
}

/** The iMBEA recursion of [6]: enumerate maximal bicliques with |L| ≥
  * `minL`, absorbing fully-connected candidates into R in bulk.
  * Subclasses decide what a maximal biclique yields (`atMaximal`) and
  * whether a candidate pool can still lead to output (`canGrow`).
  *
  * A node counts |N(v) ∩ L'| for all its candidates in one pass over the
  * U side of L' (each u ∈ L' adds 1 to its marked V-neighbours) instead of
  * merging every candidate's adjacency with L'. Candidates are alive V
  * vertices, marked by their rank among `allV` in a scratch array of that
  * size allocated per `runRoot`, so concurrent roots share nothing mutable.
  */
abstract class IMBEA(g: BipartiteGraph, alive: FCore.Alive, minL: Int) extends RootSearch(g, alive) {

  /** Called once per maximal biclique (L', R'); `rc` counts R' per V attribute. */
  protected def atMaximal(l: Array[Int], r: List[Int], rc: Array[Int], out: Biclique => Unit): Unit

  /** May extending R (counts `rc`) by the candidates `ids(from until to)` still give output? */
  protected def canGrow(rc: Array[Int], ids: Array[Int], from: Int, to: Int): Boolean

  /** Rank of each alive V vertex in `allV`; dead ids are never looked up. */
  @transient private lazy val vRank: Array[Int] = {
    val rank = new Array[Int](g.nV)
    var k = 0
    while (k < allV.length) { rank(allV(k)) = k; k += 1 }
    rank
  }

  /** Alive V-neighbours of each alive U vertex, as ranks in `allV`
    * (null for dead U vertices, which are never in L).
    */
  @transient private lazy val adjRank: Array[Array[Int]] = {
    val adj = new Array[Array[Int]](g.nU)
    allU.foreach(u => adj(u) = g.adjU(u).filter(alive.v(_)).map(vRank(_)))
    adj
  }

  /** |N(v) ∩ Û| per alive V rank: the candidates' counts at a root. */
  @transient private lazy val rootCnt: Array[Int] = {
    val cnt = new Array[Int](allV.length)
    allU.foreach(u => adjRank(u).foreach(w => cnt(w) += 1))
    cnt
  }

  def runRoot(roots: Array[Int], i: Int, out: Biclique => Unit): Array[Int] = {
    val cntL = new Array[Int](roots.length)
    var k = i + 1
    while (k < roots.length) { cntL(k) = rootCnt(vRank(roots(k))); k += 1 }
    processNode(roots, cntL, i, roots.length, allU, Nil, new Array[Int](g.nAttrV),
                new Array[Int](allV.length), out)
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
    while (k < end) { slot(vRank(ids(k))) = k + 1; k += 1 }
    var i = 0
    while (i < l1.length) {
      val ws = adjRank(l1(i))
      var j  = 0
      while (j < ws.length) {
        val s = slot(ws(j))
        if (s > 0) cnt(s - 1) += 1
        j += 1
      }
      i += 1
    }
    k = 0
    while (k < end) { slot(vRank(ids(k))) = 0; k += 1 }

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
