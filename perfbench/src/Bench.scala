package perfbench

import scala.collection.mutable

/** Benchmark harness. Run through `perfbench/run.py`, which builds the
  * classes and pins the JVM; see perfbench/README.md.
  *
  * `run`: set up the workload three times (median = set-up time), warm up,
  * then issue operations in a closed loop for the given seconds, checking
  * every result set outside the timed region. With `--trace 1` it
  * alternates untraced operations with traced ones and reports per-layer
  * metrics instead. The last stdout line is the JSON result.
  *
  * `record`: prints the digest of each workload's result set from its
  * timed entry point and from the independent reference algorithm.
  */
object Bench {

  /** Per-layer metrics reported on every workload (`per_layer` in
    * BENCHMARK.json), with units.
    */
  val sharedLayerMetrics: Seq[(String, String)] = Seq(
    "graph.generate_ms" -> "ms", "graph.edges" -> "count", "graph.restrict_ms" -> "ms",
    "fcore.ms" -> "ms", "fcore.alive_u" -> "count", "fcore.alive_v" -> "count",
    "twohop.ms" -> "ms", "twohop.edges" -> "count",
    "coloring.ms" -> "ms", "coloring.colors" -> "count",
    "cfcore.ego_ms" -> "ms", "cfcore.ms" -> "ms", "cfcore.alive_u" -> "count", "cfcore.alive_v" -> "count",
    "search.ms" -> "ms", "search.roots" -> "count", "search.roots_skipped" -> "count",
    "search.results" -> "count", "search.root_ms_max" -> "ms", "search.root_top1_share" -> "ratio",
    "search.sink_ms" -> "ms",
    "combination.maximal_bicliques" -> "count", "combination.candidates" -> "count",
    "combination.yield" -> "ratio", "combination.ms" -> "ms",
    "trace.overhead_pct" -> "%",
  )

  /** Per-layer metrics of layers that only some workloads run. */
  val bifairMetrics: Seq[(String, String)] = Seq(
    "bifair.phase1_ms" -> "ms", "bifair.phase1_results" -> "count", "bifair.expand_ms" -> "ms",
    "bifair.results" -> "count", "bifair.expand_yield" -> "ratio",
  )
  val distMetrics: Seq[(String, String)] = Seq(
    "graph.to_local_ms" -> "ms",
    "dist.fcore_ms" -> "ms", "dist.fcore_jobs" -> "count", "dist.fcore_shuffle_mb" -> "MB",
    "dist.local_prune_ms" -> "ms", "dist.broadcast_kb" -> "KiB", "dist.fanout_ms" -> "ms",
    "dist.fanout_tasks" -> "count", "dist.task_ms_max" -> "ms", "dist.task_ms_p50" -> "ms",
    "dist.collect_ms" -> "ms", "dist.to_df_ms" -> "ms",
  )

  private val SetUps = 3
  private val MinOps = 3

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val mode = opts("mode")
    val seed = opts("seed").toLong
    val workDir = opts("work-dir")
    def workload(name: String) =
      Workloads(name, opts("spark-master"), opts("shuffle-partitions").toInt, s"$workDir/spark-local")
    mode match {
      case "run" =>
        val w = workload(opts("workload"))
        try run(w, seed, opts("seconds").toDouble, opts("trace") == "1", workDir)
        finally w.close()
      case "record" =>
        for (name <- opts.get("workload").map(Seq(_)).getOrElse(Workloads.names)) {
          val w = workload(name)
          try {
            w.setUp(seed)
            val got = w.digest(w.op())
            val ref = w.reference()
            println(s"$name: entry point $got; reference $ref" + (if (got == ref) "" else "  MISMATCH"))
            println(f"""    "$name" -> Digest(${got.count}L, 0x${got.hash}%016xL),""")
          } finally w.close()
        }
    }
  }

  /** Counts operations and failures; an exception or a wrong result set is
    * a failed operation.
    */
  private final class Checker {
    var attempted = 0
    var failed    = 0
    private val errors = mutable.LinkedHashSet.empty[String]

    def apply(result: => Option[String]): Unit = {
      attempted += 1
      val err =
        try result
        catch { case e: Exception => Some(s"${e.getClass.getSimpleName}: ${e.getMessage}") }
      err.foreach { e => failed += 1; errors += e }
    }

    def report(): Unit = errors.take(5).foreach(e => println(s"# failure: $e"))
  }

  private def check(w: Workload)(out: w.Out): Option[String] = {
    val got      = w.digest(out)
    val expected = Workloads.expected(w.name)
    if (got == expected) None else Some(s"result set $got, expected $expected")
  }

  private def run(w: Workload, seed: Long, seconds: Double, trace: Boolean, workDir: String): Unit = {
    val setUpS     = mutable.ArrayBuffer.empty[Double]
    val generateMs = mutable.ArrayBuffer.empty[Double]
    for (_ <- 0 until SetUps) {
      setUpS += timeS(w.setUp(seed))
      generateMs += w.generateMs
    }
    val checker = new Checker
    val warmUpS = timeS((0 until w.warmUps).foreach(_ => checker(check(w)(w.op()))))
    val setUp = median(setUpS.toSeq) + warmUpS
    println(f"# ${w.name} seed=$seed set-ups=${setUpS.map(s => f"$s%.3f").mkString("/")} s, warm-up ${w.warmUps} ops ${warmUpS}%.3f s")

    val tracer   = new Tracer
    val plainS   = mutable.ArrayBuffer.empty[Double]
    val allocMb  = mutable.ArrayBuffer.empty[Double]
    val start    = System.nanoTime()
    def elapsed  = (System.nanoTime() - start) / 1e9
    // Traced runs alternate: even operations untraced, odd ones traced.
    val minIssued = if (trace) 2 * MinOps else MinOps
    var i = 0
    while (elapsed < seconds || i < minIssued) {
      if (trace && i % 2 == 1) {
        tracer.nextOp()
        checker(check(w)(tracer.span("op")(w.tracedOp(tracer))))
        w.diagnose(tracer)
      } else checker {
        val a0 = allocatedBytes()
        val t0 = System.nanoTime()
        val out = w.op()
        val t1 = System.nanoTime()
        val a1 = allocatedBytes()
        plainS += (t1 - t0) / 1e9
        allocMb += (a1 - a0) / 1e6
        check(w)(out)
      }
      i += 1
    }
    checker(w.checkOnce())
    checker.report()

    val metrics: Seq[(String, Double, String)] =
      if (!trace) {
        val (tail, beyond) = tailOf(plainS.toSeq)
        println(f"# query_s_tail is p${100.0 * (plainS.size - beyond) / plainS.size}%.0f: $beyond of ${plainS.size} samples beyond it")
        println(s"# samples: ${plainS.size} operations, ${checker.failed} of ${checker.attempted} failed")
        Seq(
          ("query_s_p50", median(plainS.toSeq), "s"),
          ("query_s_tail", tail, "s"),
          ("alloc_mb_p50", median(allocMb.toSeq), "MB"),
          ("setup_s", setUp, "s"),
        )
      } else {
        val layers = layerMetrics(w, tracer, median(generateMs.toSeq), median(plainS.toSeq))
        tracer.write(java.nio.file.Paths.get(workDir, "trace", s"${w.name}-seed$seed.jsonl"))
        printSelfTimes(tracer)
        val shared = sharedLayerMetrics.map { case (n, u) => (n, layers(n), u) }
        val extra  = (bifairMetrics ++ distMetrics).filter(m => layers.contains(m._1)).map { case (n, u) => (n, layers(n), u) }
        if (extra.nonEmpty) println(s"# layer metrics of this workload only: ${json(extra)}")
        shared
      }
    println(s"""{"correct": ${checker.failed == 0}, "attempted": ${checker.attempted}, "failed": ${checker.failed}, "metrics": ${json(metrics)}}""")
  }

  /** Medians over traced operations. Counts must repeat exactly; a count
    * that varies between operations is reported on stdout.
    */
  private def layerMetrics(w: Workload, t: Tracer, generateMs: Double, plainMedianS: Double): Map[String, Double] = {
    val m = mutable.LinkedHashMap.empty[String, Double]
    def spanMs(metric: String, span: String): Unit = m(metric) = median(t.totalMs(span))
    def count(metric: String): Unit = {
      val vs = t.counter(metric)
      if (vs.distinct.size > 1) println(s"# count $metric varies between operations: ${vs.distinct.mkString(", ")}")
      m(metric) = median(vs)
    }
    m("graph.generate_ms") = generateMs
    m("graph.edges") = w.graph.numEdges.toDouble
    spanMs("graph.restrict_ms", "graph.restrict")
    spanMs("fcore.ms", "fcore"); count("fcore.alive_u"); count("fcore.alive_v")
    spanMs("twohop.ms", "twohop"); count("twohop.edges")
    spanMs("coloring.ms", "coloring"); count("coloring.colors")
    spanMs("cfcore.ego_ms", "cfcore.ego"); spanMs("cfcore.ms", "cfcore")
    count("cfcore.alive_u"); count("cfcore.alive_v")
    spanMs("search.ms", "search")
    count("search.roots"); count("search.roots_skipped"); count("search.results")
    m("search.root_ms_max") = median(t.counter("search.root_ms_max"))
    m("search.root_top1_share") =
      median(t.counter("search.root_ms_max").zip(t.counter("search.root_ms_sum")).map { case (a, b) => a / b })
    m("search.sink_ms") = median(t.counter("search.sink_ms"))
    count("combination.maximal_bicliques"); count("combination.candidates")
    m("combination.yield") = m("search.results") / m("combination.candidates")
    spanMs("combination.ms", "combination")
    m("trace.overhead_pct") = (median(t.totalMs("op")) / (plainMedianS * 1e3) - 1) * 100

    if (t.counterNames.contains("bifair.results")) {
      spanMs("bifair.phase1_ms", "bifair.phase1"); count("bifair.phase1_results")
      spanMs("bifair.expand_ms", "bifair.expand"); count("bifair.results")
      m("bifair.expand_yield") = m("bifair.results") / m("bifair.phase1_results")
    }
    w match {
      case d: DistWorkload =>
        d.drain()
        val fcore  = d.layers.of("dist.fcore")
        val fanout = d.layers.of("dist.fanout")
        spanMs("graph.to_local_ms", "graph.to_local")
        spanMs("dist.fcore_ms", "dist.fcore")
        m("dist.fcore_jobs") = median(fcore.map(_.jobs.toDouble))
        m("dist.fcore_shuffle_mb") = median(fcore.map(_.shuffleWriteBytes / 1e6))
        spanMs("dist.local_prune_ms", "dist.local_prune")
        count("dist.broadcast_kb")
        spanMs("dist.fanout_ms", "dist.fanout")
        m("dist.fanout_tasks") = median(fanout.map(_.tasks.toDouble))
        m("dist.task_ms_max") = median(fanout.map(_.taskMs.max.toDouble))
        m("dist.task_ms_p50") = median(fanout.map(c => median(c.taskMs.map(_.toDouble).toSeq)))
        // Driver-side share of the fan-out action: the part of its wall
        // time outside the window in which its tasks ran.
        m("dist.collect_ms") = median(t.totalMs("dist.fanout").zip(fanout).map { case (ms, c) =>
          ms - (c.lastFinish - c.firstLaunch) })
        spanMs("dist.to_df_ms", "dist.to_df")
        for (layer <- Seq("dist.fcore", "graph.to_local", "dist.fanout", "dist.to_df")) {
          val calls = d.layers.of(layer)
          def med(f: SparkLayers.Call => Double) = median(calls.map(f))
          println(f"# spark $layer%-14s per call: jobs ${med(_.jobs)}%.0f, stages ${med(_.stages)}%.0f, " +
                  f"tasks ${med(_.tasks)}%.0f, shuffle read ${med(_.shuffleReadBytes / 1e6)}%.3f MB, " +
                  f"write ${med(_.shuffleWriteBytes / 1e6)}%.3f MB")
        }
      case _ =>
    }
    m.toMap
  }

  private def printSelfTimes(t: Tracer): Unit = {
    println("# self time per traced operation (median ms):")
    for (name <- t.spanNames)
      println(f"#   $name%-22s self ${median(t.selfMs(name))}%10.3f  total ${median(t.totalMs(name))}%10.3f")
  }

  private def json(ms: Seq[(String, Double, String)]): String =
    ms.map { case (n, v, u) =>
      require(!v.isNaN && !v.isInfinite, s"metric $n is $v")
      s""""$n": {"value": ${java.lang.Double.toString(v)}, "unit": "$u"}"""
    }.mkString("{", ", ", "}")

  private val threads =
    java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by all live threads (Spark tasks run on
    * executor threads of the same JVM).
    */
  private def allocatedBytes(): Long =
    threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum

  private def timeS(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1e9
  }

  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest sample with at least ten samples beyond it. Runs with
    * fewer than 40 samples keep a quarter of them beyond it instead, so the
    * tail never drops below the third quartile. Returns the value and how
    * many samples lie beyond it.
    */
  def tailOf(xs: Seq[Double]): (Double, Int) = {
    val s      = xs.sorted
    val beyond = math.min(10, s.length / 4)
    (s(s.length - 1 - beyond), beyond)
  }
}
