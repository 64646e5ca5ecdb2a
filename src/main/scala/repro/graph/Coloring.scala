package repro.graph

/** Greedy graph colouring in non-increasing degree order [35], as used by
  * CFCore (Alg 2, line 6): adjacent vertices get different colours; the
  * degree order keeps the colour count close to the degeneracy bound.
  */
object Coloring {

  /** @return colour per vertex (0-based); dead vertices (empty adjacency,
    *         degree 0) still get colour 0, which is harmless for the
    *         colorful-core peel because they are peeled immediately anyway.
    *
    * Only vertices with an edge are ordered: by non-increasing degree, ties
    * by id, through one primitive sort of packed `(-deg, id)` keys.
    */
  def greedyByDegree(g: AttributedGraph): Array[Int] = {
    var n = 0; var v = 0
    while (v < g.n) { if (g.deg(v) > 0) n += 1; v += 1 }
    val keys = new Array[Long](n)
    n = 0; v = 0
    while (v < g.n) {
      if (g.deg(v) > 0) { keys(n) = (-g.deg(v).toLong << 32) | v; n += 1 }
      v += 1
    }
    java.util.Arrays.sort(keys)

    val color = new Array[Int](g.n)
    keys.foreach(key => color(key.toInt) = -1)
    val used = new java.util.BitSet()
    keys.foreach { key =>
      val v = key.toInt
      used.clear()
      val ns = g.adj(v); var i = 0
      while (i < ns.length) {
        val c = color(ns(i))
        if (c >= 0) used.set(c)
        i += 1
      }
      color(v) = used.nextClearBit(0)
    }
    color
  }

  /** Number of distinct colours in a colouring. */
  def numColors(color: Array[Int]): Int = if (color.isEmpty) 0 else color.max + 1
}
