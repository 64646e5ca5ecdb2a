package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.bipartite.{BipartiteConfig, SynthBipartite}
import repro.core._
import repro.graph.{AttributedGraph, BipartiteGraph, Coloring, GraphIO}
import repro.spark.{DistEnum, DistFCore}

/** One closed-loop workload: a single client that issues the next
  * operation as soon as the previous one returns.
  */
abstract class Workload {
  type Out

  def name: String

  /** Operations run after set-up and before the timed ones, so that the JIT
    * has compiled the hot paths.
    */
  def warmUps: Int

  /** Builds the inputs from the seed. The harness runs it several times and
    * reports the median, so it must leave a fresh, complete set-up behind.
    */
  def setUp(seed: Long): Unit

  /** The input graph the program receives. */
  def graph: BipartiteGraph

  /** Wall time of graph generation in the last `setUp`. */
  def generateMs: Double

  /** The timed operation, through the program's top-level entry point. */
  def op(): Out

  /** The same operation rebuilt from the public functions it calls, with a
    * span around each call.
    */
  def tracedOp(t: Tracer): Out

  /** Calls beside the operation that time single pruning components and
    * count the work Combination and output materialisation do.
    */
  def diagnose(t: Tracer): Unit

  def digest(out: Out): Digest

  /** Digest of the result set computed by an independent algorithm. */
  def reference(): Digest

  /** Checks made once per run, outside the timed region. */
  def checkOnce(): Option[String] = None

  def close(): Unit = ()
}

/** One fair-biclique query: single-side (SSFBC) or bi-side (BSFBC). */
final case class Query(bi: Boolean, alpha: Int, beta: Int, delta: Int = 2) {
  val params: FairParams = FairParams(alpha, beta, delta)
}

object Workloads {

  val names: Seq[String] = Seq("ssfbc-search", "prune-select", "dist-ssfbc")

  /** Result digests of each workload, recorded with `run.py --record` from
    * the independent reference algorithms (FairBCEM for single-side
    * queries, BFairBCEM for bi-side ones). Relabelling leaves them equal at
    * every seed.
    */
  val expected: Map[String, Digest] = Map(
    "ssfbc-search" -> Digest(10316L, 0xcc628f42cec9c6e6L),
    "prune-select" -> Digest(464L, 0xbbffe7bb63698576L),
    "dist-ssfbc"   -> Digest(10316L, 0xcc628f42cec9c6e6L),
  )

  def apply(name: String, sparkMaster: String, shufflePartitions: Int, localDir: String): Workload =
    name match {
      // Search and Combination take ~90% of an operation, CFCore ~7%.
      case "ssfbc-search" => new LocalWorkload(name, SynthBipartite.youtubeS, Seq(Query(bi = false, 4, 4)), 30)
      // Selective queries on the largest graph: pruning dominates, the
      // search sees only a few hundred vertices. The two bi-side queries
      // also run BiFair.expandLeft.
      case "prune-select" => new LocalWorkload(name, SynthBipartite.dblpS,
        Seq(Query(bi = false, 7, 7), Query(bi = false, 8, 6), Query(bi = true, 4, 4), Query(bi = true, 4, 5)), 6)
      case "dist-ssfbc" => new DistWorkload(sparkMaster, shufflePartitions, localDir)
      case other => throw new IllegalArgumentException(s"unknown workload $other; one of ${names.mkString(", ")}")
    }
}

/** The pipeline stages of `FairBCEMpp.enumerate` and `BiFair.enumerate`
  * rebuilt from their public pieces, with spans and counters.
  */
object Layers {

  /** `FairBCEMpp.enumerateOn`: the sequential root loop honouring the C-set. */
  def search(t: Tracer, g: BipartiteGraph, alive: FCore.Alive, p: FairParams): Vector[Biclique] =
    t.span("search") {
      val searcher = new FairBCEMpp.Searcher(g, alive, p, proportional = false)
      val roots    = t.span("search.roots")(searcher.roots(VertexOrdering.DegOrd))
      val out      = Vector.newBuilder[Biclique]
      val skip     = new java.util.HashSet[Integer]()
      var skipped  = 0
      var maxNs    = 0L
      var sumNs    = 0L
      var i = 0
      while (i < roots.length) {
        if (skip.contains(roots(i))) skipped += 1
        else {
          val t0 = System.nanoTime()
          searcher.runRoot(roots, i, out += _).foreach(v => skip.add(v))
          val ns = System.nanoTime() - t0
          maxNs = math.max(maxNs, ns)
          sumNs += ns
        }
        i += 1
      }
      val res = out.result()
      t.add("search.roots", roots.length)
      t.add("search.roots_skipped", skipped)
      t.add("search.results", res.size)
      t.max("search.root_ms_max", maxNs / 1e6)
      t.add("search.root_ms_sum", sumNs / 1e6)
      res
    }

  /** `CFCore.prune` / `biPrune` → `restrict` → search (→ `expandLeft`). */
  def query(t: Tracer, g: BipartiteGraph, q: Query): (Vector[Biclique], FCore.Alive, BipartiteGraph) = {
    val p     = q.params
    val alive = t.span("cfcore")(if (q.bi) CFCore.biPrune(g, p.alpha, p.beta) else CFCore.prune(g, p.alpha, p.beta))
    t.add("cfcore.alive_u", alive.countU)
    t.add("cfcore.alive_v", alive.countV)
    val pruned = t.span("graph.restrict")(g.restrict(alive.u, alive.v))
    val out =
      if (!q.bi) search(t, pruned, alive, p)
      else {
        val ssfbcs = t.span("bifair.phase1")(search(t, pruned, alive, p))
        t.add("bifair.phase1_results", ssfbcs.size)
        val bsfbcs = t.span("bifair.expand")(ssfbcs.flatMap(BiFair.expandLeft(pruned, p, _, proportional = false)))
        t.add("bifair.results", bsfbcs.size)
        bsfbcs
      }
    (out, alive, pruned)
  }

  /** Each CFCore / BCFCore component in its own timed call, in the order
    * the pruner runs them: FCore, then per side 2-hop graph, the degree
    * filter, colouring and the ego colorful core.
    */
  def pruneComponents(t: Tracer, g: BipartiteGraph, q: Query): Unit = {
    val p     = q.params
    val core1 = t.span("fcore")(if (q.bi) FCore.biFairCore(g, p.alpha, p.beta) else FCore.fairCore(g, p.alpha, p.beta))
    t.add("fcore.alive_u", core1.countU)
    t.add("fcore.alive_v", core1.countV)

    def side(h: AttributedGraph, alive: Array[Boolean], nAttr: Int, k: Int): Array[Boolean] = {
      t.add("twohop.edges", h.numEdges.toDouble)
      val aliveH = alive.clone()
      for (v <- aliveH.indices if aliveH(v)) if (h.adj(v).count(aliveH(_)) < nAttr * k - 1) aliveH(v) = false
      val color = t.span("coloring")(Coloring.greedyByDegree(h.restrict(aliveH)))
      t.add("coloring.colors", Coloring.numColors(color))
      t.span("cfcore.ego")(CFCore.egoColorfulCore(h, k, aliveH))
    }

    if (!q.bi) {
      val h = t.span("twohop")(repro.core.TwoHop.construct(g, p.alpha, core1.u, core1.v))
      side(h, core1.v, g.nAttrV, p.beta)
    } else {
      val hV      = t.span("twohop")(repro.core.TwoHop.biConstruct(g, p.alpha, core1.u, core1.v))
      val aliveV2 = side(hV, core1.v, g.nAttrV, p.beta)
      val hU      = t.span("twohop")(repro.core.TwoHop.biConstruct(g.transpose, p.beta, aliveV2, core1.u))
      side(hU, core1.u, g.nAttrU, p.alpha)
    }
  }

  /** Maximal bicliques that can hold a fair right side, and the candidate
    * subsets Combination enumerates over them.
    */
  def combination(t: Tracer, pruned: BipartiteGraph, p: FairParams): Unit = {
    val mbs = t.span("mbea")(MBEA.enumerate(pruned, p.alpha, pruned.nAttrV * p.beta))
    t.add("combination.maximal_bicliques", mbs.size)
    val groups = mbs.map { b =>
      val byAttr = Array.fill(pruned.nAttrV)(Array.newBuilder[Int])
      b.right.foreach(v => byAttr(pruned.attrV(v)) += v)
      byAttr.map(_.result())
    }.filter(_.forall(_.length >= p.beta))
    var candidates = 0.0
    t.span("combination") {
      groups.foreach(g => FairSet.combination(g, p.beta, p.delta).foreach(_ => candidates += 1))
    }
    t.add("combination.candidates", candidates)
  }

  /** The search roots once into a collecting and once into a counting sink. */
  def sinkCost(t: Tracer, pruned: BipartiteGraph, alive: FCore.Alive, p: FairParams): Unit = {
    val searcher = new FairBCEMpp.Searcher(pruned, alive, p, proportional = false)
    val roots    = searcher.roots(VertexOrdering.DegOrd)
    def runAll(sink: Biclique => Unit): Double = {
      val t0 = System.nanoTime()
      roots.indices.foreach(i => searcher.runRoot(roots, i, sink))
      (System.nanoTime() - t0) / 1e6
    }
    var n = 0L
    val countMs   = t.span("search.sink.count")(runAll(_ => n += 1))
    val out       = Vector.newBuilder[Biclique]
    val collectMs = t.span("search.sink.collect")(runAll(out += _))
    t.add("search.sink_ms", collectMs - countMs)
  }

  def digest(input: Input, results: Seq[Vector[Biclique]]): Digest = {
    val d = input.digest()
    for ((rs, q) <- results.zipWithIndex; b <- rs) d.add(q, b.left, b.right)
    d.result
  }
}

/** Queries against the in-memory graph through `FairBCEMpp.enumerate` and
  * `BiFair.enumerate` (BFairBCEM++).
  */
final class LocalWorkload(val name: String, cfg: BipartiteConfig, queries: Seq[Query],
                          val warmUps: Int) extends Workload {
  type Out = Seq[Vector[Biclique]]

  private var input: Input = _
  private var last: Seq[(FCore.Alive, BipartiteGraph)] = Nil

  def setUp(seed: Long): Unit = input = new Input(cfg, seed)

  def graph: BipartiteGraph = input.graph

  def generateMs: Double = input.generateMs

  def op(): Out = queries.map { q =>
    if (q.bi) BiFair.enumerate(input.graph, q.params) else FairBCEMpp.enumerate(input.graph, q.params)
  }

  def tracedOp(t: Tracer): Out = {
    val runs = queries.map(Layers.query(t, input.graph, _))
    last = runs.map { case (_, alive, pruned) => (alive, pruned) }
    runs.map(_._1)
  }

  def diagnose(t: Tracer): Unit =
    queries.zip(last).foreach { case (q, (alive, pruned)) =>
      Layers.pruneComponents(t, input.graph, q)
      Layers.combination(t, pruned, q.params)
      Layers.sinkCost(t, pruned, alive, q.params)
    }

  def digest(out: Out): Digest = Layers.digest(input, out)

  def reference(): Digest = Layers.digest(input, queries.map { q =>
    if (q.bi) BiFair.enumerate(input.graph, q.params, phase1 = BiFair.UseFairBCEM)
    else FairBCEM.enumerate(input.graph, q.params)
  })
}

/** `DistEnum.ssfbc` over the edge DataFrame of the graph, followed by a
  * `count()` of the result frame.
  */
final class DistWorkload(master: String, shufflePartitions: Int, localDir: String) extends Workload {
  type Out = DataFrame

  val name    = "dist-ssfbc"
  val warmUps = 2
  private val cfg = SynthBipartite.youtubeS
  private val p   = FairParams(4, 4, 2)

  private var input: Input          = _
  private var spark: SparkSession   = _
  private var edges: DataFrame      = _
  private var listener: SparkLayers = _
  private var last: (BipartiteGraph, FCore.Alive, BipartiteGraph) = _

  /** Set-up includes starting the SparkSession and building the cached
    * edge table, so every repetition stops the previous session first.
    */
  def setUp(seed: Long): Unit = {
    close()
    input = new Input(cfg, seed)
    spark = SparkSession.builder()
      .master(master)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toString)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .getOrCreate()
    edges = GraphIO.toEdgeDF(spark, input.graph).cache()
    edges.count()
  }

  def graph: BipartiteGraph = input.graph

  def generateMs: Double = input.generateMs

  def layers: SparkLayers = {
    if (listener == null) {
      listener = new SparkLayers
      spark.sparkContext.addSparkListener(listener)
    }
    listener
  }

  def drain(): Unit = org.apache.spark.PerfbenchListenerBus.drain(spark.sparkContext)

  def op(): Out = {
    val df = DistEnum.ssfbc(spark, edges, p)
    df.count()
    df
  }

  /** `DistEnum.ssfbc` rebuilt: `DistFCore.fairCore` → `GraphIO.toLocal` →
    * `CFCore.prune` → `restrict` → `Searcher.roots` → broadcast →
    * `parallelize(...).flatMap(runRoot)` → collect → `createDataFrame`.
    */
  def tracedOp(t: Tracer): Out = {
    val sc     = spark.sparkContext
    layers
    val pruned = t.sparkSpan(sc, "dist.fcore")(DistFCore.fairCore(edges, p.alpha, p.beta, nAttrV = 2))
    val loc    = t.sparkSpan(sc, "graph.to_local")(GraphIO.toLocal(pruned, 2, 2))
    val (alive, g) = t.span("dist.local_prune") {
      val alive = t.span("cfcore")(CFCore.prune(loc.graph, p.alpha, p.beta))
      (alive, t.span("graph.restrict")(loc.graph.restrict(alive.u, alive.v)))
    }
    t.add("cfcore.alive_u", alive.countU)
    t.add("cfcore.alive_v", alive.countV)
    last = (loc.graph, alive, g)
    val searcher = new FairBCEMpp.Searcher(g, alive, p, proportional = false)
    val roots    = t.span("search.roots")(searcher.roots(VertexOrdering.DegOrd))
    val (bs, br) = t.span("dist.broadcast")((sc.broadcast(searcher), sc.broadcast(roots)))
    val rootNs   = sc.collectionAccumulator[(Int, Long)]("root-ns")
    val results  = t.span("search")(t.sparkSpan(sc, "dist.fanout")(FanOut.run(sc, bs, br, rootNs)))
    val df = t.sparkSpan(sc, "dist.to_df") {
      val rows = results.map(b => Row(b.left.map(loc.uIds(_)), b.right.map(loc.vIds(_))))
      val df   = spark.createDataFrame(sc.parallelize(rows, 1), DistEnum.resultSchema)
      df.count()
      df
    }
    bs.destroy()
    br.destroy()

    val perRoot = scala.jdk.CollectionConverters.ListHasAsScala(rootNs.value).asScala.map(_._2)
    t.add("search.roots", roots.length)
    t.add("search.roots_skipped", 0)
    t.add("search.results", results.size)
    t.max("search.root_ms_max", if (perRoot.isEmpty) 0.0 else perRoot.max / 1e6)
    t.add("search.root_ms_sum", perRoot.sum / 1e6)
    t.add("dist.broadcast_kb", (serializedBytes(searcher) + serializedBytes(roots)) / 1024.0)
    df
  }

  def diagnose(t: Tracer): Unit = {
    val (collected, alive, pruned) = last
    Layers.pruneComponents(t, collected, Query(bi = false, p.alpha, p.beta, p.delta))
    Layers.combination(t, pruned, p)
    Layers.sinkCost(t, pruned, alive, p)
  }

  def digest(out: Out): Digest = {
    val d = input.digest()
    out.collect().foreach(r => d.addIds(0, r.getSeq[Long](0), r.getSeq[Long](1)))
    d.result
  }

  /** The local `FairBCEMpp.enumerate` on the same graph must give the same
    * result set as the distributed pipeline, whose every operation is
    * checked against the same recorded digest.
    */
  override def checkOnce(): Option[String] = {
    val local = Layers.digest(input, Seq(FairBCEMpp.enumerate(input.graph, p)))
    val dist  = Workloads.expected(name)
    if (local == dist) None else Some(s"local FairBCEMpp.enumerate gave $local, DistEnum.ssfbc $dist")
  }

  def reference(): Digest = Layers.digest(input, Seq(FairBCEM.enumerate(input.graph, p)))

  override def close(): Unit = if (spark != null) {
    spark.stop()
    spark = null
    listener = null
  }

  private def serializedBytes(o: AnyRef): Long = {
    var n = 0L
    val counting = new java.io.OutputStream {
      def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = new java.io.ObjectOutputStream(counting)
    out.writeObject(o)
    out.close()
    n
  }
}

/** The root fan-out of `DistEnum.ssfbc`, in an object of its own so the
  * task closure captures only the broadcasts and the accumulator.
  */
object FanOut {
  def run(sc: org.apache.spark.SparkContext,
          bs: org.apache.spark.broadcast.Broadcast[FairBCEMpp.Searcher],
          br: org.apache.spark.broadcast.Broadcast[Array[Int]],
          rootNs: org.apache.spark.util.CollectionAccumulator[(Int, Long)]): Seq[Biclique] = {
    val n = br.value.length
    sc.parallelize(0 until n, math.min(n max 1, sc.defaultParallelism * 4))
      .flatMap { i =>
        val buf = Vector.newBuilder[Biclique]
        val t0  = System.nanoTime()
        bs.value.runRoot(br.value, i, buf += _)
        rootNs.add((i, System.nanoTime() - t0))
        buf.result()
      }.collect().toSeq
  }
}
