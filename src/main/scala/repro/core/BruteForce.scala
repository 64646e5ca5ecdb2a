package repro.core

import repro.graph.BipartiteGraph

/** Definitional reference implementations by exhaustive subset enumeration.
  *
  * Only usable on tiny graphs (|V| ≲ 16); the differential tests run the
  * production enumerators against these on hundreds of random graphs. These
  * work on the *unpruned* graph, so they also validate that the pruning
  * phases never change the answer.
  */
object BruteForce {

  private def subsets(n: Int): Iterator[Vector[Int]] =
    Iterator.range(0, 1 << n).map(mask => (0 until n).filter(i => (mask & (1 << i)) != 0).toVector)

  /** Fairness of `set` under `attr` with lower bound `k` (Def 11, or the
    * proportion model of Defs 5/6): the one place the two models differ.
    */
  private type Fair = (Iterable[Int], Int => Int, Int, Int) => Boolean

  private def plain(delta: Int): Fair = FairSet.isFair(_, _, _, _, delta)

  private def proportion(delta: Int, theta: Double): Fair = FairSet.isProportionFair(_, _, _, _, delta, theta)

  /** All single-side fair bicliques (Def 3). */
  def allSSFBC(g: BipartiteGraph, p: FairParams): Set[Biclique] =
    singleSide(g, p, plain(p.delta))

  /** All proportion single-side fair bicliques (Def 5). */
  def allPSSFBC(g: BipartiteGraph, p: FairParams): Set[Biclique] =
    singleSide(g, p, proportion(p.delta, p.theta))

  private def singleSide(g: BipartiteGraph, p: FairParams, fair: Fair): Set[Biclique] = {
    require(g.nV <= 20, "brute force limited to tiny graphs")
    // Candidates: fair R with |N(R)| >= alpha; C = (N(R), R).
    val cands = subsets(g.nV).flatMap { r =>
      if (r.isEmpty) None
      else if (!fair(r, g.attrV, g.nAttrV, p.beta)) None
      else {
        val l = g.commonNeighborsOfV(r)
        if (l.length >= p.alpha && l.nonEmpty) Some(r -> l.toVector) else None
      }
    }.toVector
    // C=(N(R),R) is maximal iff no fair R' ⊃ R with N(R') = N(R).
    val byL = cands.groupBy(_._2)
    cands.collect {
      case (r, l) if !byL(l).exists { case (r2, _) => r2 != r && r.forall(r2.contains) } =>
        Biclique.of(l, r)
    }.toSet
  }

  /** All bi-side fair bicliques (Def 4). */
  def allBSFBC(g: BipartiteGraph, p: FairParams): Set[Biclique] =
    biSide(g, p, plain(p.delta))

  /** All proportion bi-side fair bicliques (Def 6). */
  def allPBSFBC(g: BipartiteGraph, p: FairParams): Set[Biclique] =
    biSide(g, p, proportion(p.delta, p.theta))

  private def biSide(g: BipartiteGraph, p: FairParams, fair: Fair): Set[Biclique] = {
    require(g.nU <= 20 && g.nV <= 20)
    val cands = (for {
      r <- subsets(g.nV) if r.nonEmpty && fair(r, g.attrV, g.nAttrV, p.beta)
      nr = g.commonNeighborsOfV(r)
      l <- subsetsOf(nr) if l.nonEmpty && fair(l, g.attrU, g.nAttrU, p.alpha)
    } yield Biclique.of(l, r)).toVector
    val candSet = cands.toSet
    candSet.filter { c =>
      !candSet.exists { c2 =>
        c2 != c && c.left.forall(c2.left.contains) && c.right.forall(c2.right.contains)
      }
    }
  }

  private def subsetsOf(elems: Array[Int]): Iterator[Vector[Int]] =
    subsets(elems.length).map(_.map(elems))

  /** All maximal bicliques with both sides nonempty, via the closure
    * characterisation: (N(R*), R*) where R* = N(N(R)) over all R ⊆ V.
    */
  def allMaximalBicliques(g: BipartiteGraph, minL: Int = 1, minR: Int = 1): Set[Biclique] = {
    require(g.nV <= 20)
    subsets(g.nV).flatMap { r =>
      if (r.isEmpty) None
      else {
        val l = g.commonNeighborsOfV(r)
        if (l.isEmpty) None
        else {
          val rStar = g.commonNeighborsOfU(l)
          if (l.length >= minL && rStar.length >= minR) Some(Biclique.of(l.toVector, rStar.toVector))
          else None
        }
      }
    }.toSet
  }

  /** All maximal fair subsets of grouped elements — reference for Alg 7. */
  def maximalFairSubsets(elemsByAttr: Array[Array[Int]], k: Int, delta: Int): Set[Set[Int]] =
    maximalSubsets(elemsByAttr, k, plain(delta))

  /** All maximal proportion-fair subsets — reference for CombinationPro. */
  def maximalProportionFairSubsets(elemsByAttr: Array[Array[Int]], k: Int, delta: Int,
                                   theta: Double): Set[Set[Int]] =
    maximalSubsets(elemsByAttr, k, proportion(delta, theta))

  private def maximalSubsets(elemsByAttr: Array[Array[Int]], k: Int, fair: Fair): Set[Set[Int]] = {
    val all    = elemsByAttr.flatten
    val attrOf = elemsByAttr.zipWithIndex.flatMap { case (es, a) => es.map(_ -> a) }.toMap
    require(all.length <= 20)
    val fairs = subsets(all.length)
      .map(_.map(all).toSet)
      .filter(s => s.nonEmpty && fair(s, attrOf, elemsByAttr.length, k))
      .toVector
    fairs.filter(s => !fairs.exists(s2 => s2 != s && s.subsetOf(s2))).toSet
  }
}
