package repro.core

import repro.graph.{BipartiteGraph, SortedOps}

/** A search decomposed into independent *root subproblems*, one per
  * top-level V candidate with Q = the earlier roots. `DistEnum` runs the
  * roots as Spark tasks against a broadcast instance; `enumerate` runs them
  * in order and honours the C-set.
  *
  * Thread-safe per call: `runRoot` allocates only local state.
  */
abstract class RootSearch(val g: BipartiteGraph, val alive: FCore.Alive) extends Serializable {

  protected val allU: Array[Int] = (0 until g.nU).filter(alive.u(_)).toArray

  def roots(ordering: VertexOrdering): Array[Int] = {
    val vs = (0 until g.nV).filter(alive.v(_)).toArray
    ordering.order(vs, g.degV)
  }

  /** Run the subproblem rooted at `roots(i)`: R = {x}, L = N(x) ∩ Û,
    * P = later roots, Q = earlier roots. Returns the C-set: later roots
    * whose subtrees this root has already covered.
    */
  def runRoot(roots: Array[Int], i: Int, out: Biclique => Unit): Array[Int]

  /** Sequential driver: every root in order, skipping retired ones. */
  def enumerate(ordering: VertexOrdering, out: Biclique => Unit): Unit = {
    val rs = roots(ordering)
    RootSearch.unretired(rs)(runRoot(rs, _, out))
  }

  def enumerate(ordering: VertexOrdering): Vector[Biclique] = {
    val out = Vector.newBuilder[Biclique]
    enumerate(ordering, out += _)
    out.result()
  }
}

object RootSearch {

  /** Alg 6 lines 31-32: run `branch(j)` for each `vs(j)` that no earlier
    * branch returned in its C-set (those subtrees would be duplicates).
    */
  private[core] def unretired(vs: Array[Int])(branch: Int => Array[Int]): Unit = {
    val skip = new java.util.HashSet[Integer]()
    var j = 0
    while (j < vs.length) {
      if (!skip.contains(vs(j))) branch(j).foreach(v => skip.add(v))
      j += 1
    }
  }
}

/** The iMBEA recursion of [6]: enumerate maximal bicliques with |L| ≥
  * `minL`, absorbing fully-connected candidates into R in bulk.
  * Subclasses decide what a maximal biclique yields (`atMaximal`) and
  * whether a candidate pool can still lead to output (`canGrow`).
  */
abstract class IMBEA(g: BipartiteGraph, alive: FCore.Alive, minL: Int) extends RootSearch(g, alive) {

  /** Called once per maximal biclique (L', R'); `rc` counts R' per V attribute. */
  protected def atMaximal(l: Array[Int], r: List[Int], rc: Array[Int], out: Biclique => Unit): Unit

  /** May extending R (counts `rc`) by candidates from `p` still give output? */
  protected def canGrow(rc: Array[Int], p: scala.collection.mutable.ArrayBuffer[Int]): Boolean

  def runRoot(roots: Array[Int], i: Int, out: Biclique => Unit): Array[Int] =
    processNode(roots(i), allU, Nil, new Array[Int](g.nAttrV),
                roots.drop(i + 1), roots.take(i), out)

  /** One search node for branching vertex `x`; returns C (x plus absorbed
    * candidates with no neighbours outside L', Alg 6 line 21) for the
    * caller to retire.
    */
  private def processNode(x: Int, l: Array[Int], r: List[Int], rc: Array[Int],
                          pRest: Array[Int], q: Array[Int], out: Biclique => Unit): Array[Int] = {
    val cSet = new scala.collection.mutable.ArrayBuffer[Int]()
    cSet += x
    val l1 = SortedOps.intersect(l, g.adjV(x))
    if (l1.length < minL || l1.isEmpty) return cSet.toArray

    // Maximality of the biclique: any visited vertex fully connected to
    // L' means this biclique (and every descendant) was found before.
    val q1 = new scala.collection.mutable.ArrayBuffer[Int]()
    var qi = 0
    while (qi < q.length) {
      val u   = q(qi)
      val cnt = SortedOps.intersectSize(g.adjV(u), l1)
      if (cnt == l1.length) return cSet.toArray
      if (cnt > 0) q1 += u
      qi += 1
    }

    // Bulk absorption: move candidates fully connected to L' into R';
    // those with no neighbour in L \ L' can never seed a new maximal
    // biclique later (their N ⊆ L') and join the C-set.
    var r1  = x :: r
    val rc1 = rc.clone(); rc1(g.attrV(x)) += 1
    val p1  = new scala.collection.mutable.ArrayBuffer[Int]()
    var pi  = 0
    while (pi < pRest.length) {
      val v   = pRest(pi)
      val cnt = SortedOps.intersectSize(g.adjV(v), l1)
      if (cnt == l1.length) {
        r1 = v :: r1
        rc1(g.attrV(v)) += 1
        if (SortedOps.intersectSize(g.adjV(v), l) == cnt) cSet += v // N(v)∩(L\L') = ∅
      } else if (cnt >= minL) p1 += v
      pi += 1
    }

    atMaximal(l1, r1, rc1, out)

    if (p1.nonEmpty && canGrow(rc1, p1)) {
      val pp = p1.toArray
      RootSearch.unretired(pp)(j =>
        processNode(pp(j), l1, r1, rc1, pp.drop(j + 1), (q1 ++ pp.take(j)).toArray, out))
    }
    cSet.toArray
  }
}
