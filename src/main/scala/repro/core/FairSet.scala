package repro.core

import repro.graph.{BipartiteGraph, SortedOps}

/** Fair set machinery (Defs 11-12) and the combinatorial enumeration of
  * maximal fair subsets (Alg 4 `MFSCheck`, Alg 7 `Combination`, and
  * `CombinationPro` for the proportional models).
  *
  * A set with per-attribute counts `c` is *fair* w.r.t. `(k, δ)` when every
  * `c(a) ≥ k` and every pairwise difference `|c(a) - c(b)| ≤ δ`. Elements of
  * the same attribute class are interchangeable for fairness, so all checks
  * reduce to count profiles. Every `Combination` entry point runs one
  * walk (`Walk`) that emits each maximal fair subset once, sorted.
  */
object FairSet {

  /** Per-attribute count profile of `set` under `attr`. */
  def counts(set: IterableOnce[Int], attr: Int => Int, nAttr: Int): Array[Int] = {
    val c = new Array[Int](nAttr)
    set.iterator.foreach(v => c(attr(v)) += 1)
    c
  }

  /** Fair-set predicate (Def 11) on a count profile. */
  def isFairCounts(c: Array[Int], k: Int, delta: Int): Boolean = {
    var mn = Int.MaxValue; var mx = Int.MinValue; var i = 0
    while (i < c.length) { if (c(i) < mn) mn = c(i); if (c(i) > mx) mx = c(i); i += 1 }
    mn >= k && (mx - mn) <= delta
  }

  def isFair(set: IterableOnce[Int], attr: Int => Int, nAttr: Int, k: Int, delta: Int): Boolean =
    isFairCounts(counts(set, attr, nAttr), k, delta)

  /** Proportion-fair predicate (Defs 5-6 condition 3 on top of fairness). */
  def isProportionFairCounts(c: Array[Int], k: Int, delta: Int, theta: Double): Boolean = {
    val tot = c.sum
    isFairCounts(c, k, delta) && tot > 0 && c.forall(_.toDouble / tot >= theta - 1e-12)
  }

  def isProportionFair(set: IterableOnce[Int], attr: Int => Int, nAttr: Int, k: Int,
                       delta: Int, theta: Double): Boolean =
    isProportionFairCounts(counts(set, attr, nAttr), k, delta, theta)

  /** Alg 4 `MFSCheck`: is `shat ⊆ s` a *maximal* fair subset of `s`?
    *
    * Count-level: `shatCounts` must be fair, and no element of `s \ shat`
    * may be addable. A superset can only add elements of classes with
    * leftover capacity; the paper's two tests (all classes have leftovers →
    * one per class is addable; otherwise some single-element addition is
    * fair) are complete — see DESIGN.md §3 / the property tests.
    */
  def isMaximalFairSubsetCounts(sCounts: Array[Int], shatCounts: Array[Int],
                                k: Int, delta: Int): Boolean = {
    require(sCounts.length == shatCounts.length)
    isMaximalUnder(sCounts, shatCounts, isFairCounts(_, k, delta))
  }

  def isMaximalFairSubset(s: Iterable[Int], shat: Iterable[Int], attr: Int => Int,
                          nAttr: Int, k: Int, delta: Int): Boolean =
    isMaximalFairSubsetCounts(counts(s, attr, nAttr), counts(shat, attr, nAttr), k, delta)

  /** Proportional analogue of `MFSCheck` (used by BFairBCEMPro++): maximal
    * among proportion-fair subsets. Requires two attribute classes (the
    * paper's setting) — single-element-addition completeness is only proved
    * for that case.
    */
  def isMaximalProportionFairSubsetCounts(sCounts: Array[Int], shatCounts: Array[Int],
                                          k: Int, delta: Int, theta: Double): Boolean = {
    require(sCounts.length == 2, "proportional models are implemented for 2 attribute values")
    isMaximalUnder(sCounts, shatCounts, isProportionFairCounts(_, k, delta, theta))
  }

  /** The body of both MFSChecks: `shatCounts` satisfies `fair`, and adding
    * one leftover element of some class, or one of every class, does not.
    */
  private def isMaximalUnder(sCounts: Array[Int], shatCounts: Array[Int],
                             fair: Array[Int] => Boolean): Boolean = {
    if (!fair(shatCounts)) return false
    val leftover = Array.tabulate(sCounts.length)(a => sCounts(a) - shatCounts(a))
    require(leftover.forall(_ >= 0), "shat is not a subset of s")
    if (leftover.forall(_ > 0)) return false // add one element of each class
    var a = 0
    while (a < leftover.length) {
      if (leftover(a) > 0) {
        val c = shatCounts.clone(); c(a) += 1
        if (fair(c)) return false
      }
      a += 1
    }
    true
  }

  /** The unique maximal fair count profile of classes with sizes `n`
    * (Alg 7 lines 3-5): `csize(a) = min(n(a), msize + δ)`.
    */
  def maximalProfile(n: Array[Int], delta: Int): Array[Int] = {
    val msize = n.min
    n.map(na => math.min(na, msize + delta))
  }

  /** `CombinationPro` profile: additionally capped by `⌊msize·(1-θ)/θ⌋`. */
  def maximalProfilePro(n: Array[Int], delta: Int, theta: Double): Array[Int] = {
    val msize = n.min
    val cap   = math.floor(msize * (1.0 - theta) / theta + 1e-9).toInt
    n.map(na => math.min(na, math.min(msize + delta, cap)))
  }

  /** Number of subsets Alg 7 would emit (Π C(n_a, csize_a)) — used as an
    * explosion guard before materialising.
    */
  def combinationCount(n: Array[Int], profile: Array[Int]): BigInt =
    n.indices.map(a => binomial(n(a), profile(a))).product

  def binomial(n: Int, k: Int): BigInt = {
    if (k < 0 || k > n) return BigInt(0)
    var acc = BigInt(1)
    for (i <- 0 until math.min(k, n - k)) acc = acc * (n - i) / (i + 1)
    acc
  }

  /** Guard against the intrinsic combinatorial blow-up of Alg 7 on a
    * pathologically large maximal biclique: fail loudly instead of hanging.
    */
  val MaxCombinationsPerBiclique: Long = 20_000_000L

  /** Alg 7 `Combination`: all maximal fair subsets of the elements grouped
    * by attribute in `elemsByAttr`. Emits sorted element arrays. Empty when
    * some class is smaller than `k`; throws when the subsets would number
    * more than `MaxCombinationsPerBiclique`.
    */
  def combination(elemsByAttr: Array[Array[Int]], k: Int, delta: Int): Iterator[Array[Int]] =
    grouped(elemsByAttr, k, delta, None)

  /** `CombinationPro`: maximal *proportion*-fair subsets. Two-attribute
    * setting only; the emitted profile always satisfies the ratio bound
    * there (see DESIGN.md §3).
    */
  def combinationPro(elemsByAttr: Array[Array[Int]], k: Int, delta: Int,
                     theta: Double): Iterator[Array[Int]] =
    grouped(elemsByAttr, k, delta, Some(theta))

  /** The walk over the elements of `elemsByAttr` in ascending id order. */
  private def grouped(elemsByAttr: Array[Array[Int]], k: Int, delta: Int,
                      theta: Option[Double]): Iterator[Array[Int]] = {
    // (id, class) packed so that one primitive sort orders by id.
    val keys = elemsByAttr.indices.toArray.flatMap(a => elemsByAttr(a).map(v => (v.toLong << 32) | a))
    java.util.Arrays.sort(keys)
    iterator(walk(keys.map(x => (x >> 32).toInt), keys.map(_.toInt), elemsByAttr.length, k, delta, theta))
  }

  /** The guards of every `Combination` (`CombinationPro` when `theta` is
    * given): two classes for `CombinationPro`, class sizes, profile,
    * explosion; then the `Walk` over
    * `members` (ascending) with classes `cls`, or null when there is
    * nothing to emit. A proportional profile that is not itself
    * proportion-fair (θ > 0.5) emits nothing, so it is never refused as an
    * explosion.
    */
  private[core] def walk(members: Array[Int], cls: Array[Int], nAttr: Int, k: Int, delta: Int,
                         theta: Option[Double]): Walk = {
    require(theta.isEmpty || nAttr == 2, "proportional models are implemented for 2 attribute values")
    val n = new Array[Int](nAttr)
    cls.foreach(a => n(a) += 1)
    if (n.exists(_ < k) || n.exists(_ == 0)) return null
    val profile = theta.fold(maximalProfile(n, delta))(maximalProfilePro(n, delta, _))
    if (theta.exists(t => !isProportionFairCounts(profile, k, delta, t))) return null
    val count = combinationCount(n, profile)
    require(count <= MaxCombinationsPerBiclique,
      s"Combination explosion: $count candidate subsets in one set " +
      s"(classes ${n.mkString("x")}, δ=$delta); choose stricter parameters")
    new Walk(members, cls, profile)
  }

  /** Alg 7 over the V vertices `members` of `g` (ascending, classes by
    * `attrV`; `CombinationPro` when `proportional`) with the outside
    * neighbours of each subset: `emit(w, hit)` runs once per maximal fair
    * subset, in `Walk` order, with `w` at that subset and `hit(a)` true iff
    * some U vertex of attribute `a` outside `base` (sorted) is adjacent to
    * every member of the subset. `hit` is one array, overwritten per
    * subset. Guards as in `combination`.
    *
    * FairBCEM++ keeps r′ ⊆ R′ when nothing is hit with `base` = L′ (then
    * N(r′) = L′); `BiFair.expandLeft` runs on the transpose, where the hit
    * classes are those of N(l′) \ R′.
    *
    * The members' outside neighbours are bitsets over their union, with one
    * running AND per depth of the walk, recomputed only from the depth the
    * walk changed. Once a prefix's AND is empty, every completion hits
    * nothing with no further test.
    */
  private[core] def combinationOutside(g: BipartiteGraph, members: Array[Int], base: Array[Int], k: Int,
                                       p: FairParams, proportional: Boolean)
                                      (emit: (Walk, Array[Boolean]) => Unit): Unit = {
    val walk = FairSet.walk(members, members.map(g.attrV), g.nAttrV, k, p.delta,
                            if (proportional) Some(p.theta) else None)
    if (walk == null) return

    // A vertex common to a subset is next to `size` members, so next to one
    // of the first n - size + 1: the bits are over the union of those
    // members' outside neighbours, set by one merge per member.
    val size = walk.size
    val outs = members.take(members.length - size + 1).flatMap(v => SortedOps.diff(g.adjV(v), base))
    java.util.Arrays.sort(outs)
    val nOut = dedup(outs)
    val nw   = (nOut + 63) >>> 6
    val bits = new Array[Long](members.length * nw)
    var i = 0
    while (i < members.length) {
      val adj = g.adjV(members(i))
      var j = 0; var b = 0
      while (j < adj.length && b < nOut) {
        if (adj(j) < outs(b)) j += 1
        else if (adj(j) > outs(b)) b += 1
        else { bits(i * nw + (b >>> 6)) |= 1L << b; j += 1; b += 1 }
      }
      i += 1
    }

    // and(d) (words d*nw until (d+1)*nw) is the AND over the members at
    // depths below d; `empty` is the shallowest depth where it is empty.
    val and   = new Array[Long]((size + 1) * nw)
    java.util.Arrays.fill(and, 0, nw, -1L)
    var empty = if (nw == 0) 0 else size + 1
    val hit   = new Array[Boolean](g.nAttrU)
    var from  = 0
    while (from >= 0) {
      if (empty > from) {
        empty = size + 1
        var d = from
        while (d < size && empty > size) {
          val m = walk.pos(d) * nw
          var any = 0L
          var w   = 0
          while (w < nw) {
            val x = and(d * nw + w) & bits(m + w)
            and((d + 1) * nw + w) = x
            any |= x
            w += 1
          }
          if (any == 0L) empty = d + 1
          d += 1
        }
      }
      java.util.Arrays.fill(hit, false)
      if (empty > size) {
        // The classes of the common outside neighbours, until all are hit.
        var seen = 0
        var w    = 0
        while (w < nw && seen < hit.length) {
          var x = and(size * nw + w)
          while (x != 0L && seen < hit.length) {
            val a = g.attrU(outs((w << 6) | java.lang.Long.numberOfTrailingZeros(x)))
            if (!hit(a)) { hit(a) = true; seen += 1 }
            x &= x - 1
          }
          w += 1
        }
      }
      emit(walk, hit)
      from = walk.advance()
    }
  }

  /** Drops repeats from sorted `a` in place; returns the distinct count. */
  private def dedup(a: Array[Int]): Int = {
    var n = 0; var i = 0
    while (i < a.length) { if (n == 0 || a(n - 1) != a(i)) { a(n) = a(i); n += 1 }; i += 1 }
    n
  }

  /** The subsets of `w` as fresh sorted arrays. */
  private def iterator(w: Walk): Iterator[Array[Int]] =
    if (w == null) Iterator.empty
    else new Iterator[Array[Int]] {
      private var more = true
      def hasNext: Boolean = more
      def next(): Array[Int] = {
        if (!more) throw new NoSuchElementException("no more subsets")
        val out = new Array[Int](w.size)
        var d = 0
        while (d < w.size) { out(d) = w.member(d); d += 1 }
        more = w.advance() >= 0
        out
      }
    }

  /** Alg 7 as one depth-first walk over `members` (ascending ids, member
    * `i` in class `cls(i)`) that takes `profile(a)` members of every class
    * `a`. Each step takes the next member if its class still has quota,
    * else (or on backtracking) skips it if the rest of its class can still
    * fill the quota, so every subset is reached once and comes out sorted,
    * in lexicographic order. The stack is explicit: `pos(d)` is the index
    * of the member taken at depth `d`, starting at the first subset, and
    * `advance` reports the shallowest depth it changed, so a caller can
    * keep per-depth state of the prefix (`combinationOutside`). Mutable;
    * one walk per call.
    */
  private[core] final class Walk(val members: Array[Int], cls: Array[Int], profile: Array[Int]) {
    /** Members in every subset: the depth of a complete one. */
    val size: Int = profile.sum
    val pos: Array[Int] = new Array[Int](size)
    private val quota = profile.clone()
    // Members of the same class after each index.
    private val after = {
      val left = new Array[Int](profile.length)
      val out  = new Array[Int](members.length)
      var i    = members.length - 1
      while (i >= 0) { out(i) = left(cls(i)); left(cls(i)) += 1; i -= 1 }
      out
    }
    fill(0, 0)

    /** The member taken at depth `d`. */
    def member(d: Int): Int = members(pos(d))

    /** Move to the next subset; returns the shallowest depth whose member
      * changed, or -1 (after which the walk is spent) when there is none.
      */
    def advance(): Int = {
      var d = size - 1
      while (d >= 0) {
        val i = pos(d)
        quota(cls(i)) += 1
        if (after(i) >= quota(cls(i))) { fill(d, i + 1); return d }
        d -= 1
      }
      -1
    }

    /** Take greedily from member `i0` on, filling depths `d0 until size`. */
    private def fill(d0: Int, i0: Int): Unit = {
      var d = d0; var i = i0
      while (d < size) {
        if (quota(cls(i)) > 0) { quota(cls(i)) -= 1; pos(d) = i; d += 1 }
        i += 1
      }
    }
  }
}
