package repro.core

import repro.graph.BipartiteGraph

/** Bi-side fair biclique enumeration (Alg 9): enumerate SSFBCs first, then
  * for each SSFBC (L', R') enumerate maximal fair subsets l' of L' via
  * Alg 7 and keep (l', R') when R' is a maximal fair subset of N(l').
  *
  * `BFairBCEM` uses `FairBCEM` for phase 1, `BFairBCEM++` uses
  * `FairBCEM++`, `BNSF` uses `NSF`; `BFairBCEMPro++` is the proportional
  * variant (Def 6) built on `FairBCEMPro++` and `CombinationPro`.
  */
object BiFair {

  sealed trait Phase1
  case object UseFairBCEM   extends Phase1 // BFairBCEM
  case object UseFairBCEMpp extends Phase1 // BFairBCEM++
  case object UseNSF        extends Phase1 // BNSF

  def enumerate(g0: BipartiteGraph, p: FairParams,
                ordering: VertexOrdering = VertexOrdering.DegOrd,
                phase1: Phase1 = UseFairBCEMpp,
                proportional: Boolean = false,
                timeoutMs: Long = 0): Vector[Biclique] = {
    val alive = CFCore.biPrune(g0, p.alpha, p.beta)
    enumerateOn(g0.restrict(alive.u, alive.v), alive, p, ordering, phase1, proportional, timeoutMs)
  }

  /** `enumerate` that returns None instead of throwing on timeout. */
  def enumerateOpt(g0: BipartiteGraph, p: FairParams, ordering: VertexOrdering,
                   phase1: Phase1, timeoutMs: Long): Option[Vector[Biclique]] =
    try Some(enumerate(g0, p, ordering, phase1, proportional = false, timeoutMs))
    catch { case _: FairBCEM.SearchTimeout => None }

  /** `enumerate` on an already-pruned graph. Throws
    * `IllegalArgumentException` for a choice phase 1 cannot run:
    * `proportional` on any phase 1 but FairBCEM++ (whose maximal *fair*
    * right sides the proportional check would reject), or a time budget
    * on FairBCEM++, which has no deadline.
    */
  def enumerateOn(g: BipartiteGraph, alive: FCore.Alive, p: FairParams,
                  ordering: VertexOrdering, phase1: Phase1,
                  proportional: Boolean, timeoutMs: Long = 0): Vector[Biclique] = {
    require(!proportional || phase1 == UseFairBCEMpp,
      s"the proportional model (BFairBCEMPro++) needs phase 1 UseFairBCEMpp, not $phase1")
    require(timeoutMs <= 0 || phase1 != UseFairBCEMpp, s"phase 1 $phase1 takes no time budget")
    val ssfbcs: Vector[Biclique] = phase1 match {
      case UseFairBCEM   => FairBCEM.enumerateOn(g, alive, p, ordering, naive = false, timeoutMs)
      case UseNSF        => FairBCEM.enumerateOn(g, alive, p, ordering, naive = true, timeoutMs)
      case UseFairBCEMpp => FairBCEMpp.enumerateOn(g, alive, p, ordering, proportional)
    }
    ssfbcs.flatMap(b => expandLeft(g, p, b, proportional))
  }

  /** Lines 4-8 of Alg 9 for one single-side fair biclique. Exposed so
    * `DistEnum` can run phase 2 as a Spark flatMap over phase-1 results.
    */
  def expandLeft(g: BipartiteGraph, p: FairParams, ssfbc: Biclique,
                 proportional: Boolean): Vector[Biclique] = {
    val out     = Vector.newBuilder[Biclique]
    val combos  = FairSet.maximalFairSubsets(ssfbc.left, g.attrU, g.nAttrU, p.alpha, p, proportional)
    val rCounts = FairSet.counts(ssfbc.right, g.attrV, g.nAttrV)
    combos.foreach { lPrime =>
      // R' must be a maximal fair subset of N(l') (count-level suffices:
      // elements of one class are interchangeable).
      val nl        = g.commonNeighborsOfU(lPrime)
      val nlCounts  = FairSet.counts(nl, g.attrV, g.nAttrV)
      val ok =
        if (proportional)
          FairSet.isMaximalProportionFairSubsetCounts(nlCounts, rCounts, p.beta, p.delta, p.theta)
        else
          FairSet.isMaximalFairSubsetCounts(nlCounts, rCounts, p.beta, p.delta)
      if (ok) out += Biclique.of(lPrime, ssfbc.right)
    }
    out.result()
  }
}
