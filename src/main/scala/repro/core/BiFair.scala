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

  /** Alg 9 on `g0`. Throws `IllegalArgumentException` for a choice phase
    * 1 cannot run: `proportional` on any phase 1 but FairBCEM++ (whose
    * maximal *fair* right sides the proportional check would reject), or a
    * time budget on FairBCEM++, which has no deadline; and for
    * `proportional` unless both sides have 2 attribute values.
    */
  def enumerate(g0: BipartiteGraph, p: FairParams,
                ordering: VertexOrdering = VertexOrdering.DegOrd,
                phase1: Phase1 = UseFairBCEMpp,
                proportional: Boolean = false,
                timeoutMs: Long = 0): Vector[Biclique] = {
    require(!proportional || phase1 == UseFairBCEMpp,
      s"the proportional model (BFairBCEMPro++) needs phase 1 UseFairBCEMpp, not $phase1")
    val onU = p.onU(g0, proportional)
    val onV = p.onV(g0, proportional)
    require(timeoutMs <= 0 || phase1 != UseFairBCEMpp, s"phase 1 $phase1 takes no time budget")
    val c = CFCore.biPruned(g0, p.alpha, p.beta)
    val h = c.graph
    // Phase 1 emits ids of the compact graph, on which each result is
    // expanded; the expansion's output is translated to ids of `g0`.
    val ssfbcs: RootSearch = phase1 match {
      case UseFairBCEM   => new FairBCEM.Searcher(h, null, null, p, naive = false, FairBCEM.deadline(timeoutMs))
      case UseNSF        => new FairBCEM.Searcher(h, null, null, p, naive = true, FairBCEM.deadline(timeoutMs))
      case UseFairBCEMpp => new FairBCEMpp.Searcher(h, null, null, p, proportional)
    }
    val out = Vector.newBuilder[Biclique]
    ssfbcs.enumerate(ordering, b => expandLeft(h, c.uIds, c.vIds, onU, onV, b, out += _))
    out.result()
  }

  /** Lines 4-8 of Alg 9 for one single-side fair biclique of `g`, in the
    * ids of `g`. Exposed so `DistEnum` can run phase 2 as a Spark flatMap over
    * phase-1 results.
    */
  def expandLeft(g: BipartiteGraph, p: FairParams, ssfbc: Biclique,
                 proportional: Boolean): Vector[Biclique] = {
    val out = Vector.newBuilder[Biclique]
    expandLeft(g, null, null, p.onU(g, proportional), p.onV(g, proportional), ssfbc, out += _)
    out.result()
  }

  /** `expandLeft` into `out`, emitting U vertex u as `uIds(u)` and V
    * vertex v as `vIds(v)` (null: unchanged). The maps are monotone, so
    * l′ (sorted by the walk) stays sorted; R′ is mapped once per call.
    *
    * R′ must be a maximal fair subset of N(l′). As (L′, R′) is a biclique,
    * N(l′) is R′ plus the common neighbours of l′ outside R′, and the
    * count-level check (MFSCheck) only asks which classes of those have a
    * member: elements of one class are interchangeable.
    */
  private def expandLeft(g: BipartiteGraph, uIds: Array[Int], vIds: Array[Int], onU: Fairness, onV: Fairness,
                         ssfbc: Biclique, out: Biclique => Unit): Unit = {
    val ls = ssfbc.left.toArray
    val rs = ssfbc.right.toArray
    java.util.Arrays.sort(ls)
    java.util.Arrays.sort(rs)
    val rCounts = FairSet.counts(rs, g.attrV, g.nAttrV)
    lazy val right = Vector.tabulate(rs.length)(i => RootSearch.id(vIds, rs(i)))
    // L′ is on the V side of the transpose.
    FairSet.combinationOutside(g.transpose, ls, rs, onU) { (walk, hit) =>
      val nlCounts = Array.tabulate(g.nAttrV)(a => rCounts(a) + (if (hit(a)) 1 else 0))
      if (onV.isMaximal(nlCounts, rCounts))
        out(Biclique(Vector.tabulate(walk.size)(d => RootSearch.id(uIds, walk.member(d))), right))
    }
  }
}
