package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}

class FairSetSpec extends AnyFunSuite {

  private def checkProp(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), p)
    assert(res.passed, res.status.toString)
  }

  test("isFairCounts: lower bound and pairwise difference") {
    assert(FairSet.isFairCounts(Array(3, 3), k = 2, delta = 0))
    assert(FairSet.isFairCounts(Array(3, 4), k = 2, delta = 1))
    assert(!FairSet.isFairCounts(Array(3, 5), k = 2, delta = 1))
    assert(!FairSet.isFairCounts(Array(1, 3), k = 2, delta = 2))
    assert(FairSet.isFairCounts(Array(2, 2, 4), k = 1, delta = 2))
    assert(!FairSet.isFairCounts(Array(2, 2, 5), k = 1, delta = 2))
  }

  test("isFairCounts with k=0 accepts empty classes within delta") {
    assert(FairSet.isFairCounts(Array(0, 0), k = 0, delta = 0))
    assert(!FairSet.isFairCounts(Array(0, 2), k = 0, delta = 1))
  }

  test("isProportionFairCounts enforces the ratio bound") {
    assert(FairSet.isProportionFairCounts(Array(2, 3), 1, 2, 0.4))
    assert(!FairSet.isProportionFairCounts(Array(2, 4), 1, 2, 0.4))
    assert(FairSet.isProportionFairCounts(Array(2, 2), 1, 2, 0.5))
    assert(!FairSet.isProportionFairCounts(Array(2, 3), 1, 2, 0.5))
  }

  test("counts groups elements by attribute") {
    val attr = Array(0, 1, 0, 1, 1)
    assert(FairSet.counts(Seq(0, 1, 2, 3, 4), attr, 2).toSeq == Seq(2, 3))
    assert(FairSet.counts(Seq(1, 4), attr, 2).toSeq == Seq(0, 2))
  }

  test("binomial small values and symmetry") {
    assert(FairSet.binomial(5, 2) == BigInt(10))
    assert(FairSet.binomial(10, 0) == BigInt(1))
    assert(FairSet.binomial(4, 5) == BigInt(0))
    assert(FairSet.binomial(40, 12) == BigInt("5586853480"))
    for (n <- 0 to 12; k <- 0 to n) assert(FairSet.binomial(n, k) == FairSet.binomial(n, n - k))
  }

  test("maximalProfile matches the paper formula") {
    assert(FairSet.maximalProfile(Array(5, 3), 1).toSeq == Seq(4, 3))
    assert(FairSet.maximalProfile(Array(10, 10), 2).toSeq == Seq(10, 10))
    assert(FairSet.maximalProfile(Array(10, 5, 1), 1).toSeq == Seq(2, 2, 1))
  }

  test("maximalProfilePro adds the theta cap") {
    assert(FairSet.maximalProfilePro(Array(9, 4), 2, 0.4).toSeq == Seq(6, 4))
    assert(FairSet.maximalProfilePro(Array(9, 4), 2, 0.5).toSeq == Seq(4, 4))
  }

  private val groupGen: Gen[(Int, Int, Int, Int)] = for {
    n0    <- Gen.choose(0, 6)
    n1    <- Gen.choose(0, 6)
    k     <- Gen.choose(1, 3)
    delta <- Gen.choose(0, 3)
  } yield (n0, n1, k, delta)

  private def groups(n0: Int, n1: Int) = Array(Array.range(0, n0), Array.range(100, 100 + n1))

  test("Combination (Alg 7) returns exactly the maximal fair subsets") {
    checkProp(Prop.forAll(groupGen) { case (n0, n1, k, delta) =>
      val gs  = groups(n0, n1)
      val got = FairSet.combination(gs, k, delta).map(_.toSet).toSet
      val exp = BruteForce.maximalFairSubsets(gs, k, delta)
      got == exp
    })
  }

  test("Combination three attribute classes") {
    val gs  = Array(Array(0, 1, 2, 3), Array(10, 11, 12), Array(20))
    val got = FairSet.combination(gs, 1, 1).map(_.toSet).toSet
    val exp = BruteForce.maximalFairSubsets(gs, 1, 1)
    assert(got == exp)
  }

  // 2-4 classes over ids 0, 3, 6, ..., each id in a random class, so the
  // classes interleave in id order.
  private val interleavedGen: Gen[(Array[Array[Int]], Int, Int)] = for {
    c     <- Gen.choose(2, 4)
    cls   <- Gen.choose(0, 12).flatMap(Gen.listOfN(_, Gen.choose(0, c - 1)))
    k     <- Gen.choose(1, 3)
    delta <- Gen.choose(0, 3)
  } yield (Array.tabulate(c)(a => cls.indices.filter(cls(_) == a).map(_ * 3).toArray), k, delta)

  test("Combination emits each maximal fair subset exactly once, sorted, over interleaved classes") {
    checkProp(Prop.forAll(interleavedGen) { case (gs, k, delta) =>
      val n    = gs.map(_.length)
      val got  = FairSet.combination(gs, k, delta).map(_.toVector).toVector
      val want =
        if (n.exists(na => na < k || na == 0)) BigInt(0)
        else FairSet.combinationCount(n, FairSet.maximalProfile(n, delta))
      BigInt(got.size) == want &&
        got.forall(s => s.indices.drop(1).forall(i => s(i - 1) < s(i))) &&
        got.distinct.size == got.size &&
        got.map(_.toSet).toSet == BruteForce.maximalFairSubsets(gs, k, delta)
    })
  }

  test("CombinationPro returns exactly the maximal proportion-fair subsets (2 classes)") {
    checkProp(Prop.forAll(groupGen) { case (n0, n1, k, delta) =>
      val gs = groups(n0, n1)
      Seq(0.3, 0.4, 0.5).forall { theta =>
        val got = FairSet.combinationPro(gs, k, delta, theta).map(_.toSet).toSet
        val exp = BruteForce.maximalProportionFairSubsets(gs, k, delta, theta)
        got == exp
      }
    })
  }

  test("MFSCheck (Alg 4) agrees with definitional maximality") {
    checkProp(Prop.forAll(groupGen) { case (n0, n1, k, delta) =>
      val gs      = groups(math.min(n0, 5), math.min(n1, 5))
      val all     = gs.flatten
      val attr    = gs.zipWithIndex.flatMap { case (es, a) => es.map(_ -> a) }.toMap
      val maximal = BruteForce.maximalFairSubsets(gs, k, delta)
      val fair = (0 until (1 << all.length)).map { mask =>
        all.indices.filter(i => (mask & (1 << i)) != 0).map(all).toSet
      }.filter(s => FairSet.isFair(s, attr, gs.length, k, delta))
      fair.forall { s =>
        FairSet.isMaximalFairSubset(all.toSeq, s, attr, gs.length, k, delta) == maximal.contains(s)
      }
    })
  }

  test("MFSCheck three classes, exhausted middle class") {
    // classes sizes (3,1,3); shat = one of each, delta=1, k=1
    val gs   = Array(Array(0, 1, 2), Array(10), Array(20, 21, 22))
    val attr = gs.zipWithIndex.flatMap { case (es, a) => es.map(_ -> a) }.toMap
    val all  = gs.flatten.toSeq
    // (2,1,2) is maximal: adding to class 0 or 2 gives diff 2 > 1.
    assert(FairSet.isMaximalFairSubset(all, Seq(0, 1, 10, 20, 21), attr, 3, 1, 1))
    // (1,1,1) is not maximal.
    assert(!FairSet.isMaximalFairSubset(all, Seq(0, 10, 20), attr, 3, 1, 1))
  }

  test("combinationCount matches the enumerated size") {
    val gs   = Array(Array.range(0, 5), Array.range(10, 13))
    val prof = FairSet.maximalProfile(gs.map(_.length), 1)
    val n    = FairSet.combination(gs, 1, 1).size
    assert(BigInt(n) == FairSet.combinationCount(gs.map(_.length), prof))
  }

  test("combination is empty when a class cannot reach k") {
    assert(FairSet.combination(Array(Array(1, 2), Array(3)), 2, 1).isEmpty)
    assert(FairSet.combination(Array(Array(1, 2), Array.empty[Int]), 1, 1).isEmpty)
  }

  test("combination and combinationPro refuse a Combination explosion") {
    // Classes of 30 and 15 at δ=0: profile (15, 15), C(30,15) ≈ 1.6e8 subsets.
    val gs = Array(Array.range(0, 30), Array.range(100, 115))
    val plain = intercept[IllegalArgumentException](FairSet.combination(gs, 1, 0))
    assert(plain.getMessage.contains("Combination explosion"))
    val pro = intercept[IllegalArgumentException](FairSet.combinationPro(gs, 1, 0, 0.5))
    assert(pro.getMessage.contains("Combination explosion"))
  }

  test("combinationPro with no proportion-fair profile is empty, not an explosion") {
    // With 2 classes no set has both shares ≥ θ = 0.6, so nothing is
    // emitted, although the profile (10, 10) counts C(30,10)·C(15,10) ≈ 9e10.
    val gs = Array(Array.range(0, 30), Array.range(100, 115))
    assert(FairSet.combinationPro(gs, 1, 0, 0.6).isEmpty)
  }

  test("combinationPro refuses other than 2 classes, also when one is empty") {
    for (gs <- Seq(Array(Array(1, 2), Array(3, 4), Array.empty[Int]), Array(Array(1, 2), Array(3, 4), Array(5, 6)))) {
      val e = intercept[IllegalArgumentException](FairSet.combinationPro(gs, 1, 1, 0.3))
      assert(e.getMessage.contains("2 attribute values"))
    }
  }
}
