package repro.core

import scala.collection.mutable

import repro.graph.{AttributedGraph, BipartiteGraph}

/** 2-hop graph construction on the fair side (Alg 3 `Construct2HopGraph`
  * and Alg 8 `BiConstruct2HopGraph`).
  *
  * The result has the V-side vertex ids of `g` (dead vertices get empty
  * adjacency). `CFCore` builds it on the compact graph of the first peel's
  * survivors, where every vertex is alive, so its arrays are sized by the
  * survivors, not the input. Cost is Σ_u d(u)² as in the paper. One flat
  * counter array is reused across source vertices; only the alive
  * V-vertices get an adjacency buffer.
  *
  * For the U-side 2-hop graph (BCFCore) call these on `g.transpose`.
  */
object TwoHop {

  /** Alg 3: connect v1, v2 iff they share ≥ α common U-neighbours. */
  def construct(g: BipartiteGraph, alpha: Int,
                aliveU: Array[Boolean], aliveV: Array[Boolean]): AttributedGraph =
    build(g, alpha, aliveU, aliveV, new Array[Int](g.nU), 1)

  /** Alg 8: connect v1, v2 iff they share ≥ α common U-neighbours *of every
    * U-attribute value* (condition (1) of the bi-side model, Def 4).
    */
  def biConstruct(g: BipartiteGraph, alpha: Int,
                  aliveU: Array[Boolean], aliveV: Array[Boolean]): AttributedGraph =
    build(g, alpha, aliveU, aliveV, g.attrU, g.nAttrU)

  /** The builder of both: alive v1, v2 are adjacent iff they share ≥ α
    * alive U-neighbours in every class of `classU` (one class: Alg 3; the
    * U attributes: Alg 8).
    */
  private def build(g: BipartiteGraph, alpha: Int, aliveU: Array[Boolean], aliveV: Array[Boolean],
                    classU: Array[Int], nClass: Int): AttributedGraph = {
    val adj = Array.tabulate(g.nV)(v => if (aliveV(v)) new mutable.ArrayBuilder.ofInt else null)
    // cnt(w·nClass + c): alive class-c U-neighbours that w < v shares with v.
    val cnt     = new Array[Int](g.nV * nClass)
    val seen    = new Array[Boolean](g.nV)
    val touched = new Array[Int](g.nV)
    for (v <- 0 until g.nV if aliveV(v)) {
      var nT = 0
      // Sorted adjacency: ids below v come first. Each undirected edge is
      // found once, from its larger end, and mirrored below.
      g.adjV(v).foreach { u =>
        if (aliveU(u)) {
          val ws = g.adjU(u); val c = classU(u); var j = 0
          while (j < ws.length && ws(j) < v) {
            val w = ws(j)
            if (aliveV(w)) {
              if (!seen(w)) { seen(w) = true; touched(nT) = w; nT += 1 }
              cnt(w * nClass + c) += 1
            }
            j += 1
          }
        }
      }
      for (t <- 0 until nT) {
        val w = touched(t); val row = w * nClass
        if ((0 until nClass).forall(c => cnt(row + c) >= alpha)) { adj(v) += w; adj(w) += v }
        java.util.Arrays.fill(cnt, row, row + nClass, 0)
        seen(w) = false
      }
    }
    new AttributedGraph(adj.map(b => if (b == null) Array.emptyIntArray else b.result().sorted),
                        g.attrV, g.nAttrV)
  }
}
