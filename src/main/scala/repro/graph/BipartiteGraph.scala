package repro.graph

/** Immutable attributed bipartite graph G = (U, V, E, A).
  *
  * Vertices of each side are dense integer ids `0 until nU` / `0 until nV`
  * in disjoint id spaces. Adjacency lists are sorted ascending, which lets
  * set operations (intersection, full-connectivity checks) run as linear
  * merges — the enumeration algorithms are intersection-bound.
  *
  * Attributes are small integers `0 until nAttrU` / `0 until nAttrV`; the
  * paper's setting is two values per side (`nAttr* = 2`) but nothing here
  * assumes that.
  *
  * @param adjU neighbour lists U -> sorted V ids
  * @param adjV neighbour lists V -> sorted U ids (transpose of adjU)
  * @param attrU attribute value per U vertex
  * @param attrV attribute value per V vertex
  */
final class BipartiteGraph(
    val adjU: Array[Array[Int]],
    val adjV: Array[Array[Int]],
    val attrU: Array[Int],
    val attrV: Array[Int],
    val nAttrU: Int,
    val nAttrV: Int,
) extends Serializable {

  val nU: Int = adjU.length
  val nV: Int = adjV.length

  def degU(u: Int): Int = adjU(u).length
  def degV(v: Int): Int = adjV(v).length
  def numEdges: Long    = adjU.iterator.map(_.length.toLong).sum

  /** Attribute degree D_a(u) (Def 7): #neighbours of U-vertex u with V-attribute a. */
  def attrDegU(u: Int, a: Int): Int = {
    var c = 0; val ns = adjU(u); var i = 0
    while (i < ns.length) { if (attrV(ns(i)) == a) c += 1; i += 1 }
    c
  }

  /** Attribute degree of V-vertex v counted over U-attribute a. */
  def attrDegV(v: Int, a: Int): Int = {
    var c = 0; val ns = adjV(v); var i = 0
    while (i < ns.length) { if (attrU(ns(i)) == a) c += 1; i += 1 }
    c
  }

  /** True iff edge (u, v) exists (binary search in u's list). */
  def hasEdge(u: Int, v: Int): Boolean = java.util.Arrays.binarySearch(adjU(u), v) >= 0

  /** Common U-neighbourhood of a set of V vertices: N(S) = ∩_{v∈S} N(v). */
  def commonNeighborsOfV(vs: Iterable[Int]): Array[Int] = {
    val it = vs.iterator
    if (!it.hasNext) return Array.range(0, nU)
    var acc = adjV(it.next())
    while (it.hasNext && acc.nonEmpty) acc = SortedOps.intersect(acc, adjV(it.next()))
    acc
  }

  /** Common V-neighbourhood of a set of U vertices. */
  def commonNeighborsOfU(us: Iterable[Int]): Array[Int] = {
    val it = us.iterator
    if (!it.hasNext) return Array.range(0, nV)
    var acc = adjU(it.next())
    while (it.hasNext && acc.nonEmpty) acc = SortedOps.intersect(acc, adjU(it.next()))
    acc
  }

  /** Subgraph induced by alive masks, preserving vertex ids: edges with a
    * dead endpoint are dropped; dead vertices keep empty adjacency.
    */
  def restrict(aliveU: Array[Boolean], aliveV: Array[Boolean]): BipartiteGraph = {
    val aU = Array.tabulate(nU) { u =>
      if (!aliveU(u)) Array.empty[Int] else adjU(u).filter(aliveV(_))
    }
    val aV = Array.tabulate(nV) { v =>
      if (!aliveV(v)) Array.empty[Int] else adjV(v).filter(aliveU(_))
    }
    new BipartiteGraph(aU, aV, attrU, attrV, nAttrU, nAttrV)
  }

  /** Subgraph induced by alive masks, relabelled to dense ids: vertex `i`
    * of the result is vertex `uIds(i)` (U) or `vIds(i)` (V) of this graph.
    * The relabelling is monotone, so adjacency stays sorted and id order
    * (DegOrd/IDOrd tie-breaks) is kept. Only alive vertices' lists are read.
    */
  def compact(aliveU: Array[Boolean], aliveV: Array[Boolean]): BipartiteGraph.Compact = {
    import BipartiteGraph.{ids, ranks, relabel}
    val uIds  = ids(aliveU)
    val vIds  = ids(aliveV)
    val uRank = ranks(uIds, nU)
    val vRank = ranks(vIds, nV)
    val aU    = new Array[Array[Int]](uIds.length)
    val aV    = new Array[Array[Int]](vIds.length)
    var i = 0
    while (i < uIds.length) { aU(i) = relabel(adjU(uIds(i)), aliveV, vRank); i += 1 }
    i = 0
    while (i < vIds.length) { aV(i) = relabel(adjV(vIds(i)), aliveU, uRank); i += 1 }
    BipartiteGraph.Compact(new BipartiteGraph(aU, aV, uIds.map(attrU), vIds.map(attrV), nAttrU, nAttrV),
                           uIds, vIds)
  }

  /** Swap the two sides (U becomes V): used to reuse fair-side machinery on U. */
  def transpose: BipartiteGraph =
    new BipartiteGraph(adjV, adjU, attrV, attrU, nAttrV, nAttrU)
}

object BipartiteGraph {

  /** A compacted graph: its vertex `i` is vertex `uIds(i)` (U) or
    * `vIds(i)` (V) of the graph it was compacted from; both maps ascend.
    */
  final case class Compact(graph: BipartiteGraph, uIds: Array[Int], vIds: Array[Int]) {

    /** `graph` compacted again, with ids still mapping to the original graph. */
    def compact(aliveU: Array[Boolean], aliveV: Array[Boolean]): Compact = {
      val c = graph.compact(aliveU, aliveV)
      Compact(c.graph, c.uIds.map(uIds), c.vIds.map(vIds))
    }
  }

  /** The ids set in `mask`, ascending. */
  def ids(mask: Array[Boolean]): Array[Int] = {
    var n = 0; var i = 0
    while (i < mask.length) { if (mask(i)) n += 1; i += 1 }
    val out = new Array[Int](n)
    n = 0; i = 0
    while (i < mask.length) { if (mask(i)) { out(n) = i; n += 1 }; i += 1 }
    out
  }

  /** The alive ids of `ns` as their ranks among the alive vertices. */
  private def relabel(ns: Array[Int], alive: Array[Boolean], rank: Array[Int]): Array[Int] = {
    var n = 0; var j = 0
    while (j < ns.length) { if (alive(ns(j))) n += 1; j += 1 }
    val out = new Array[Int](n)
    n = 0; j = 0
    while (j < ns.length) { if (alive(ns(j))) { out(n) = rank(ns(j)); n += 1 }; j += 1 }
    out
  }

  /** `rank(ids(i)) = i`, over ids `0 until n`. */
  private def ranks(ids: Array[Int], n: Int): Array[Int] = {
    val rank = new Array[Int](n)
    var i = 0
    while (i < ids.length) { rank(ids(i)) = i; i += 1 }
    rank
  }

  /** The mask of size `n` that sets exactly `ids`. */
  def mask(ids: Array[Int], n: Int): Array[Boolean] = {
    val out = new Array[Boolean](n)
    ids.foreach(out(_) = true)
    out
  }

  /** Build from an edge list; duplicate edges are collapsed.
    *
    * @throws IllegalArgumentException when an edge end or an attribute is
    *         out of range.
    */
  def fromEdges(
      nU: Int,
      nV: Int,
      edges: Iterable[(Int, Int)],
      attrU: Array[Int],
      attrV: Array[Int],
      nAttrU: Int = 2,
      nAttrV: Int = 2,
  ): BipartiteGraph = {
    require(attrU.length == nU, s"attrU size ${attrU.length} != nU $nU")
    require(attrV.length == nV, s"attrV size ${attrV.length} != nV $nV")
    for ((side, attr, nAttr) <- Seq(("U", attrU, nAttrU), ("V", attrV, nAttrV)); i <- attr.indices)
      require(attr(i) >= 0 && attr(i) < nAttr, s"$side vertex $i has attribute ${attr(i)} outside 0 until $nAttr")
    val bU = Array.fill(nU)(new scala.collection.mutable.ArrayBuffer[Int]())
    val bV = Array.fill(nV)(new scala.collection.mutable.ArrayBuffer[Int]())
    for ((u, v) <- edges) {
      require(u >= 0 && u < nU && v >= 0 && v < nV, s"edge ($u,$v) out of range")
      bU(u) += v
      bV(v) += u
    }
    val aU = bU.map(_.distinct.sorted.toArray)
    val aV = bV.map(_.distinct.sorted.toArray)
    new BipartiteGraph(aU, aV, attrU, attrV, nAttrU, nAttrV)
  }
}

/** Linear-merge primitives over sorted int arrays. */
object SortedOps {

  def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](math.min(a.length, b.length))
    var i = 0; var j = 0; var k = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { out(k) = a(i); k += 1; i += 1; j += 1 }
    }
    java.util.Arrays.copyOf(out, k)
  }

  def intersectSize(a: Array[Int], b: Array[Int]): Int = {
    var i = 0; var j = 0; var k = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { k += 1; i += 1; j += 1 }
    }
    k
  }

  /** The elements of `a` not in `b`. */
  def diff(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](a.length)
    var i = 0; var j = 0; var k = 0
    while (i < a.length) {
      while (j < b.length && b(j) < a(i)) j += 1
      if (j >= b.length || b(j) != a(i)) { out(k) = a(i); k += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(out, k)
  }

  /** True iff sorted `sub` ⊆ sorted `sup`. */
  def isSubset(sub: Array[Int], sup: Array[Int]): Boolean = {
    var i = 0; var j = 0
    while (i < sub.length && j < sup.length) {
      if (sub(i) == sup(j)) { i += 1; j += 1 }
      else if (sub(i) > sup(j)) j += 1
      else return false
    }
    i == sub.length
  }
}
