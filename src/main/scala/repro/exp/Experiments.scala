package repro.exp

import org.apache.spark.sql.SparkSession
import repro.bipartite.{BipartiteConfig, SynthBipartite}
import repro.core._
import repro.graph.{BipartiteGraph, GraphIO}
import repro.spark.{DistEnum, DistStats}

/** Experiment harnesses — one per table/claim of §V. Each returns typed
  * rows and can render the table the paper prints; `jobs/` wraps them as
  * spark-submit entrypoints and `bench/` runs them as ScalaTest suites.
  */
object Experiments {

  def timeMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** JIT warmup: run every code path once on a small graph so the first
    * timed measurement is not dominated by compilation.
    */
  lazy val warmup: Unit = {
    val g = SynthBipartite.generate(SynthBipartite.youtubeS.copy(
      nU = 300, nV = 150, blocks = 8, blockVMin = 5, blockVMax = 8, noiseEdges = 500))
    val p = FairParams(3, 2, 2)
    FairBCEM.enumerate(g, p)
    FairBCEM.enumerateOpt(g, p, VertexOrdering.DegOrd, naive = true, timeoutMs = 2000)
    FairBCEMpp.enumerate(g, p)
    FairBCEMpp.enumerate(g, p.copy(theta = 0.4), proportional = true)
    BiFair.enumerate(g, FairParams(2, 2, 2), phase1 = BiFair.UseFairBCEM)
    BiFair.enumerate(g, FairParams(2, 2, 2), phase1 = BiFair.UseFairBCEMpp)
    MBEA.count(g, 2, 2)
    ()
  }

  def loadDataset(cfg: BipartiteConfig): BipartiteGraph = SynthBipartite.generate(cfg)

  def defaultsOf(cfg: BipartiteConfig): SynthBipartite.Defaults =
    SynthBipartite.defaults(cfg.name)

  def paramsSingle(cfg: BipartiteConfig): FairParams = {
    val d = defaultsOf(cfg); FairParams(d.alphaS, d.betaS, d.delta, d.theta)
  }

  def paramsBi(cfg: BipartiteConfig): FairParams = {
    val d = defaultsOf(cfg); FairParams(d.alphaB, d.betaB, d.delta, d.theta)
  }

  /** One of the paper's enumeration algorithms (§V-A), run with CFCore
    * (BCFCore when `bi`) pruning. Only the naive baselines NSF and BNSF
    * take a time budget (ms, 0 = none); they throw `SearchTimeout` past it.
    */
  private final case class Algorithm(name: String, bi: Boolean, naive: Boolean,
                                     run: (BipartiteGraph, FairParams, VertexOrdering, Long) => Vector[Biclique])

  /** Each model's naive baseline, then its pair of algorithms. */
  private val algorithms = Seq(
    Algorithm("NSF", bi = false, naive = true, (g, p, o, t) => FairBCEM.enumerate(g, p, o, naive = true, t)),
    Algorithm("FairBCEM", bi = false, naive = false, (g, p, o, _) => FairBCEM.enumerate(g, p, o)),
    Algorithm("FairBCEM++", bi = false, naive = false, (g, p, o, _) => FairBCEMpp.enumerate(g, p, o)),
    Algorithm("BNSF", bi = true, naive = true, (g, p, o, t) => BiFair.enumerate(g, p, o, BiFair.UseNSF, timeoutMs = t)),
    Algorithm("BFairBCEM", bi = true, naive = false, (g, p, o, _) => BiFair.enumerate(g, p, o, BiFair.UseFairBCEM)),
    Algorithm("BFairBCEM++", bi = true, naive = false, (g, p, o, _) => BiFair.enumerate(g, p, o, BiFair.UseFairBCEMpp)),
  )

  /** The four algorithms of Table II and Exp-5. */
  private val fourAlgorithms = algorithms.filterNot(_.naive)

  // ------------------------------------------------------------------
  // Table I — datasets and parameters
  // ------------------------------------------------------------------

  final case class TableIRow(dataset: String, nU: Long, nV: Long, nE: Long, density: Double,
                             alphaS: Int, betaS: Int, alphaB: Int, betaB: Int,
                             delta: Int, theta: Double) {
    def render: String =
      f"$dataset%-10s ${nU}%9d ${nV}%9d ${nE}%9d $density%10.2e   $alphaS%2d $betaS%2d   $alphaB%2d $betaB%2d   $delta%2d $theta%4.1f"
  }

  def tableI(spark: SparkSession, datasets: Seq[BipartiteConfig] = SynthBipartite.all): Seq[TableIRow] =
    datasets.map { cfg =>
      val g  = loadDataset(cfg)
      val st = DistStats.stats(GraphIO.toEdgeDF(spark, g))
      val d  = defaultsOf(cfg)
      TableIRow(cfg.name, st.nU, st.nV, st.nE, st.density,
                d.alphaS, d.betaS, d.alphaB, d.betaB, d.delta, d.theta)
    }

  // ------------------------------------------------------------------
  // Table II — runtime of the four algorithms with IDOrd and DegOrd
  // ------------------------------------------------------------------

  final case class TableIIRow(algorithm: String, ordering: String, dataset: String,
                              seconds: Double, results: Long) {
    def render: String = f"$algorithm%-12s $ordering%-7s $dataset%-10s $seconds%10.2f s  ($results%d results)"
  }

  /** The four enumeration algorithms at the dataset's default parameters. */
  def tableII(datasets: Seq[BipartiteConfig] = SynthBipartite.all,
              orderings: Seq[VertexOrdering] = VertexOrdering.all): Seq[TableIIRow] = {
    warmup
    datasets.flatMap { cfg =>
      val g = loadDataset(cfg)
      for (ord <- orderings; a <- fourAlgorithms) yield {
        val (r, t) = timeMs(a.run(g, if (a.bi) paramsBi(cfg) else paramsSingle(cfg), ord, 0))
        TableIIRow(a.name, ord.name, cfg.name, t / 1000.0, r.size.toLong)
      }
    }
  }

  // ------------------------------------------------------------------
  // Exp-1 — pruning effectiveness and cost (Figs 3-4 headline numbers)
  // ------------------------------------------------------------------

  final case class PruneRow(dataset: String, model: String, alpha: Int, beta: Int,
                            origVerts: Long, fcoreVerts: Long, cfcoreVerts: Long,
                            fcoreMs: Double, cfcoreMs: Double) {
    def render: String =
      f"$dataset%-10s $model%-6s α=$alpha%-2d β=$beta%-2d  orig=$origVerts%8d  FCore=$fcoreVerts%7d  CFCore=$cfcoreVerts%7d  tF=$fcoreMs%8.1f ms  tCF=$cfcoreMs%8.1f ms"
  }

  def exp1Pruning(cfg: BipartiteConfig, alphas: Seq[Int], betas: Seq[Int],
                  defaultAlpha: Int, defaultBeta: Int, bi: Boolean): Seq[PruneRow] = {
    warmup
    val g     = loadDataset(cfg)
    val model = if (bi) "bi" else "single"
    val orig  = (0 until g.nU).count(g.degU(_) > 0).toLong + (0 until g.nV).count(g.degV(_) > 0).toLong
    val combos = alphas.map(a => (a, defaultBeta)) ++ betas.map(b => (defaultAlpha, b))
    combos.distinct.map { case (a, b) =>
      val (f, tf)  = timeMs(if (bi) FCore.biFairCore(g, a, b) else FCore.fairCore(g, a, b))
      val (c, tc)  = timeMs(if (bi) CFCore.biPrune(g, a, b) else CFCore.prune(g, a, b))
      PruneRow(cfg.name, model, a, b, orig,
               (f.countU + f.countV).toLong, (c.countU + c.countV).toLong, tf, tc)
    }
  }

  // ------------------------------------------------------------------
  // Exp-2 / Exp-3 — enumeration runtime sweeps incl. the naive baselines
  // ------------------------------------------------------------------

  /** `seconds < 0` encodes "INF" — the algorithm hit its time budget, the
    * analogue of the paper's 24-hour limit.
    */
  final case class SweepRow(dataset: String, model: String, varied: String, value: Int,
                            algorithm: String, seconds: Double, results: Long) {
    def isInf: Boolean = seconds < 0
    def render: String = {
      val t = if (isInf) "      INF" else f"$seconds%9.3f"
      f"$dataset%-10s $model%-6s $varied%-5s=$value%-3d $algorithm%-12s $t s  ($results%d)"
    }
  }

  /** Vary one of α/β/δ around the defaults and time each algorithm.
    * `naiveTimeoutMs = 0` skips the naive baseline entirely.
    */
  def exp2Ssfbc(cfg: BipartiteConfig, varied: String, values: Seq[Int],
                naiveTimeoutMs: Long, ordering: VertexOrdering = VertexOrdering.DegOrd): Seq[SweepRow] =
    sweep(cfg, bi = false, varied, values, naiveTimeoutMs, ordering)

  def exp3Bsfbc(cfg: BipartiteConfig, varied: String, values: Seq[Int],
                naiveTimeoutMs: Long, ordering: VertexOrdering = VertexOrdering.DegOrd): Seq[SweepRow] =
    sweep(cfg, bi = true, varied, values, naiveTimeoutMs, ordering)

  /** One sweep over the algorithms of a model; the two non-naive ones
    * must give the same result set at every point.
    */
  private def sweep(cfg: BipartiteConfig, bi: Boolean, varied: String, values: Seq[Int],
                    naiveTimeoutMs: Long, ordering: VertexOrdering): Seq[SweepRow] = {
    warmup
    val g     = loadDataset(cfg)
    val base  = if (bi) paramsBi(cfg) else paramsSingle(cfg)
    val model = if (bi) "bi" else "single"
    val algos = algorithms.filter(a => a.bi == bi && (naiveTimeoutMs > 0 || !a.naive))
    values.flatMap { v =>
      val p    = withParam(base, varied, v)
      val runs = algos.map { a =>
        a -> (try Some(timeMs(a.run(g, p, ordering, naiveTimeoutMs)))
              catch { case _: FairBCEM.SearchTimeout => None })
      }
      val Seq(x, y) = runs.collect { case (a, Some((r, _))) if !a.naive => a.name -> r.map(_.canonical).toSet }
      require(x._2 == y._2, s"${x._1} and ${y._1} disagree at $varied=$v on ${cfg.name}")
      runs.map { case (a, res) =>
        SweepRow(cfg.name, model, varied, v, a.name,
                 res.fold(-1.0)(_._2 / 1000.0), res.fold(-1L)(_._1.size.toLong))
      }
    }
  }

  private def withParam(p: FairParams, varied: String, v: Int): FairParams = varied match {
    case "alpha" => p.copy(alpha = v)
    case "beta"  => p.copy(beta = v)
    case "delta" => p.copy(delta = v)
    case other   => throw new IllegalArgumentException(s"unknown parameter $other")
  }

  // ------------------------------------------------------------------
  // Exp-4 — result counts: maximal bicliques vs SSFBC vs BSFBC
  // ------------------------------------------------------------------

  final case class CountRow(dataset: String, varied: String, value: Int,
                            maximalS: Long, ssfbc: Long, maximalB: Long, bsfbc: Long) {
    def render: String =
      f"$dataset%-10s $varied%-5s=$value%-3d  #MB(α,2β)=$maximalS%7d  #SSFBC=$ssfbc%7d  #MB(2α,2β)=$maximalB%7d  #BSFBC=$bsfbc%7d"
  }

  /** Counts per the paper's protocol: maximal bicliques are counted with
    * |L| ≥ α, |R| ≥ 2β (single-side comparison) and |L| ≥ 2α, |R| ≥ 2β
    * (bi-side comparison).
    */
  def exp4Counts(cfg: BipartiteConfig, varied: String, values: Seq[Int]): Seq[CountRow] = {
    warmup
    val g = loadDataset(cfg)
    values.map { v =>
      val ps = withParam(paramsSingle(cfg), varied, v)
      val pb = withParam(paramsBi(cfg), varied, v)
      val mbS = MBEA.count(g, ps.alpha, g.nAttrV * ps.beta)
      val ss  = FairBCEMpp.enumerate(g, ps).size.toLong
      val mbB = MBEA.count(g, g.nAttrU * pb.alpha, g.nAttrV * pb.beta)
      val bs  = BiFair.enumerate(g, pb).size.toLong
      CountRow(cfg.name, varied, v, mbS, ss, mbB, bs)
    }
  }

  // ------------------------------------------------------------------
  // Exp-5 — scalability: 20%..100% edge samples
  // ------------------------------------------------------------------

  final case class ScaleRow(dataset: String, fraction: Double, algorithm: String,
                            seconds: Double, results: Long) {
    def render: String =
      f"$dataset%-10s ${(fraction * 100).toInt}%3d%% $algorithm%-12s $seconds%9.3f s  ($results%d)"
  }

  /** Edge-sampled subgraphs keep less block structure than real graphs do,
    * so Exp-5 accepts explicit (weaker) parameters to keep result counts
    * nonzero across the whole 20%..100% range.
    */
  def exp5Scale(cfg: BipartiteConfig, fractions: Seq[Double],
                psOverride: Option[FairParams] = None,
                pbOverride: Option[FairParams] = None): Seq[ScaleRow] = {
    warmup
    val g0 = loadDataset(cfg)
    val ps = psOverride.getOrElse(paramsSingle(cfg))
    val pb = pbOverride.getOrElse(paramsBi(cfg))
    fractions.flatMap { f =>
      val g = if (f >= 1.0) g0 else SynthBipartite.sampleEdges(g0, f, seed = 77L)
      fourAlgorithms.map { a =>
        val (r, t) = timeMs(a.run(g, if (a.bi) pb else ps, VertexOrdering.DegOrd, 0))
        ScaleRow(cfg.name, f, a.name, t / 1000.0, r.size.toLong)
      }
    }
  }

  // ------------------------------------------------------------------
  // Exp-7 — proportional models vs θ
  // ------------------------------------------------------------------

  final case class ProRow(dataset: String, theta: Double, algorithm: String,
                          seconds: Double, results: Long) {
    def render: String = f"$dataset%-10s θ=$theta%4.2f $algorithm%-16s $seconds%9.3f s  ($results%d)"
  }

  def exp7Proportion(cfg: BipartiteConfig, thetas: Seq[Double]): Seq[ProRow] = {
    warmup
    val g  = loadDataset(cfg)
    val ps = paramsSingle(cfg)
    val pb = paramsBi(cfg)
    thetas.flatMap { th =>
      val (r1, t1) = timeMs(FairBCEMpp.enumerate(g, ps.copy(theta = th), proportional = true))
      val (r2, t2) = timeMs(BiFair.enumerate(g, pb.copy(theta = th), proportional = true))
      Seq(ProRow(cfg.name, th, "FairBCEMPro++", t1 / 1000.0, r1.size.toLong),
          ProRow(cfg.name, th, "BFairBCEMPro++", t2 / 1000.0, r2.size.toLong))
    }
  }

  // ------------------------------------------------------------------
  // Distributed pipeline timing
  // ------------------------------------------------------------------

  /** Count and seconds of `DistEnum.ssfbc` on the dataset at its
    * single-side defaults, from the edge table to the count.
    */
  def distSsfbcCount(spark: SparkSession, cfg: BipartiteConfig): (Long, Double) = {
    val g  = loadDataset(cfg)
    val df = GraphIO.toEdgeDF(spark, g)
    val (n, t) = timeMs(DistEnum.ssfbc(spark, df, paramsSingle(cfg)).count())
    (n, t / 1000.0)
  }
}
