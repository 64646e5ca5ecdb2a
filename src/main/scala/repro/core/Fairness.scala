package repro.core

/** The fairness model of one side: `nAttr` attribute classes, a per-class
  * minimum `k` and a spread `δ` (Def 11), and when `proportional` also the
  * ratio `theta` (Defs 5-6). It is the one place the plain and the
  * proportional models differ; the searches and the Combination walk ask
  * it instead of branching on the model. `FairParams.onV`/`onU` build it.
  *
  * A proportional model needs 2 classes: the paper's setting, and the only
  * one for which single-element-addition completeness of `isMaximal` and
  * the fairness of the θ-capped profile are proved (DESIGN.md §3).
  */
final case class Fairness(nAttr: Int, k: Int, delta: Int, proportional: Boolean, theta: Double) {
  require(!proportional || nAttr == 2, s"proportional models are implemented for 2 attribute values, not $nAttr")

  /** Is the count profile `c` fair: Def 11, or Defs 5-6 condition 3 on top
    * of it. Allocates nothing.
    */
  def isFair(c: Array[Int]): Boolean =
    if (proportional) FairSet.isProportionFairCounts(c, k, delta, theta) else FairSet.isFairCounts(c, k, delta)

  /** Alg 4 `MFSCheck` (or its proportional twin) on count profiles: is
    * `shat ⊆ s` a maximal fair subset of `s`?
    */
  def isMaximal(s: Array[Int], shat: Array[Int]): Boolean = FairSet.isMaximalUnder(s, shat, isFair)

  /** The count profile of the maximal fair subsets of classes with sizes
    * `n` (Alg 7 lines 3-5, or `CombinationPro`'s θ cap), or null when they
    * have none: some class is empty or smaller than `k`, or the capped
    * profile is not itself fair (as at θ > 0.5), so that it is never
    * refused as a Combination explosion.
    */
  def profile(n: Array[Int]): Array[Int] =
    if (n.exists(na => na < k || na == 0)) null
    else if (!proportional) FairSet.maximalProfile(n, delta)
    else {
      val p = FairSet.maximalProfilePro(n, delta, theta)
      if (isFair(p)) p else null
    }
}
