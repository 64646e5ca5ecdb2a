package repro.core

import repro.graph.BipartiteGraph

/** Thresholds of the fair biclique models (Defs 3-6).
  *
  * @param alpha minimum upper-side size (SSFBC) / per-attribute minimum on U (BSFBC)
  * @param beta  per-attribute minimum on the fair (lower) side V
  * @param delta maximum pairwise difference between per-attribute counts
  * @param theta fairness ratio threshold of the proportional models (≤ 0.5)
  */
final case class FairParams(alpha: Int, beta: Int, delta: Int, theta: Double = 0.4) {
  require(alpha >= 0 && beta >= 0 && delta >= 0, s"negative threshold in $this")
  require(theta > 0.0 && theta <= 0.5, s"theta must be in (0, 0.5], got $theta")

  /** The fairness model of V in `g`: per-class minimum β. Throws for
    * `proportional` unless V has 2 attribute values.
    */
  def onV(g: BipartiteGraph, proportional: Boolean): Fairness = Fairness(g.nAttrV, beta, delta, proportional, theta)

  /** The fairness model of U in `g`: per-class minimum α (the bi-side models). */
  def onU(g: BipartiteGraph, proportional: Boolean): Fairness = Fairness(g.nAttrU, alpha, delta, proportional, theta)
}

/** Vertex selection order of the branch-and-bound search (Exp-2/3, Table II). */
sealed trait VertexOrdering {
  /** Candidate order: vertices are branched on in this sequence. */
  def order(vs: Array[Int], degree: Int => Int): Array[Int]
  def name: String
}

object VertexOrdering {
  /** Non-increasing degree, ties by id — `DegOrd` in the paper. */
  case object DegOrd extends VertexOrdering {
    def order(vs: Array[Int], degree: Int => Int): Array[Int] = vs.sortBy(v => (-degree(v), v))
    val name = "DegOrd"
  }
  /** Ascending vertex id — `IDOrd` in the paper. */
  case object IDOrd extends VertexOrdering {
    def order(vs: Array[Int], degree: Int => Int): Array[Int] = vs.sorted
    val name = "IDOrd"
  }
  val all: Seq[VertexOrdering] = Seq(DegOrd, IDOrd)
}

/** One enumerated biclique (either model); both sides sorted ascending. */
final case class Biclique(left: Vector[Int], right: Vector[Int]) {
  def canonical: Biclique = Biclique(left.sorted, right.sorted)
  override def toString: String = s"B(L=${left.mkString(",")} | R=${right.mkString(",")})"
}

object Biclique {
  def of(left: Iterable[Int], right: Iterable[Int]): Biclique =
    Biclique(left.toVector.sorted, right.toVector.sorted)
}
