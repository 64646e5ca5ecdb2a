package repro.core

import repro.graph.BipartiteGraph

/** Plain maximal biclique enumeration in the iMBEA style of [6] — the
  * non-fair baseline the paper counts against in Exp-4 (maximal bicliques
  * with |L| ≥ minL and |R| ≥ minR).
  */
object MBEA {

  def enumerate(g: BipartiteGraph, minL: Int, minR: Int,
                ordering: VertexOrdering = VertexOrdering.DegOrd): Vector[Biclique] =
    search(g, minL, minR).enumerate(ordering)

  def count(g: BipartiteGraph, minL: Int, minR: Int): Long = {
    var n = 0L
    search(g, minL, minR).enumerate(VertexOrdering.DegOrd, _ => n += 1)
    n
  }

  /** The search over the compact graph of the vertices with an edge. */
  private def search(g: BipartiteGraph, minL: Int, minR: Int): Search = {
    val c = g.compact(Array.tabulate(g.nU)(g.degU(_) > 0), Array.tabulate(g.nV)(g.degV(_) > 0))
    new Search(c, minL, minR)
  }

  /** The iMBEA kernel; emits each maximal biclique with |R| ≥ minR and
    * stops once the pool cannot reach minR.
    */
  private final class Search(c: BipartiteGraph.Compact, minL: Int, minR: Int)
      extends IMBEA(c.graph, c.uIds, c.vIds, minL) {

    protected def atMaximal(l: Array[Int], r: List[Int], rc: Array[Int], out: Biclique => Unit): Unit =
      if (rc.sum >= minR) out(biclique(l, r))

    protected def canGrow(rc: Array[Int], ids: Array[Int], from: Int, to: Int): Boolean =
      rc.sum + (to - from) >= minR
  }
}
