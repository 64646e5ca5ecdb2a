package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spans and counters recorded by the benchmark around calls into the
  * program's public functions. Single-threaded: only the client thread
  * records. Everything stays in memory until `write` at the end of a run.
  */
final class Tracer {
  import Tracer._

  private val spans    = mutable.ArrayBuffer.empty[Span]
  private val counters = mutable.LinkedHashMap.empty[String, mutable.Map[Int, Double]]
  private var current  = -1
  private var op       = -1

  /** Starts the next operation; later spans and counts belong to it. */
  def nextOp(): Unit = op += 1

  def span[A](name: String)(body: => A): A = {
    val id     = spans.length
    val parent = current
    spans += null // reserve the id so children get higher ones
    current = id
    val t0 = System.nanoTime()
    try body
    finally {
      spans(id) = Span(id, name, parent, op, t0, System.nanoTime())
      current = parent
    }
  }

  /** A span around a Spark action: jobs it submits are tagged with the span
    * name and operation so `SparkLayers` can attribute their tasks.
    */
  def sparkSpan[A](sc: SparkContext, name: String)(body: => A): A = {
    sc.setLocalProperty(LayerKey, name)
    sc.setLocalProperty(OpKey, op.toString)
    try span(name)(body)
    finally { sc.setLocalProperty(LayerKey, null); sc.setLocalProperty(OpKey, null) }
  }

  def add(name: String, v: Double): Unit = {
    val m = counters.getOrElseUpdate(name, mutable.Map.empty)
    m(op) = m.getOrElse(op, 0.0) + v
  }

  def max(name: String, v: Double): Unit = {
    val m = counters.getOrElseUpdate(name, mutable.Map.empty)
    m(op) = math.max(m.getOrElse(op, Double.MinValue), v)
  }

  /** Per-operation values of a counter, in operation order. */
  def counter(name: String): Seq[Double] =
    counters.get(name).map(m => m.toSeq.sortBy(_._1).map(_._2)).getOrElse(Nil)

  def counterNames: Seq[String] = counters.keys.toSeq

  /** Per-operation sum of the durations of spans called `name`, in ms. */
  def totalMs(name: String): Seq[Double] = perOp(name, s => s.endNs - s.startNs)

  /** Per-operation sum of the self time of spans called `name`, in ms: a
    * span's duration minus the time its child spans cover.
    */
  def selfMs(name: String): Seq[Double] = perOp(name, s => s.endNs - s.startNs - childNs(s.id))

  def spanNames: Seq[String] = spans.map(_.name).distinct.toSeq

  private lazy val childNs: Map[Int, Long] =
    spans.filter(_.parent >= 0).groupMapReduce(_.parent)(s => s.endNs - s.startNs)(_ + _).withDefaultValue(0L)

  private def perOp(name: String, ns: Span => Long): Seq[Double] = {
    val sums = spans.filter(_.name == name).groupMapReduce(_.op)(ns)(_ + _)
    sums.toSeq.sortBy(_._1).map(_._2 / 1e6)
  }

  /** Writes every span, one JSON object per line. */
  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try spans.foreach { s =>
      w.write(s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},"op":${s.op},""" +
              s""""start_ns":${s.startNs},"end_ns":${s.endNs},"self_ns":${s.endNs - s.startNs - childNs(s.id)}}""")
      w.newLine()
    } finally w.close()
  }
}

object Tracer {
  final case class Span(id: Int, name: String, parent: Int, op: Int, startNs: Long, endNs: Long)

  val LayerKey = "perfbench.layer"
  val OpKey    = "perfbench.op"
}

/** Spark listener registered by the benchmark: attributes jobs, stages,
  * tasks, shuffle bytes and task durations to the span (layer call) that
  * submitted them, through the job's local properties.
  */
final class SparkLayers extends SparkListener {
  import SparkLayers.Call

  private val calls     = mutable.Map.empty[(String, Int), Call]
  private val stageCall = mutable.Map.empty[Int, (String, Int)]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = e.properties
    val layer = if (props == null) null else props.getProperty(Tracer.LayerKey)
    if (layer != null) {
      val key = (layer, props.getProperty(Tracer.OpKey).toInt)
      calls.getOrElseUpdate(key, new Call).jobs += 1
      e.stageIds.foreach(stageCall(_) = key)
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageCall.get(e.stageInfo.stageId).foreach(calls(_).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageCall.get(e.stageId).foreach { key =>
      val c  = calls(key)
      val ti = e.taskInfo
      c.tasks += 1
      c.taskMs += ti.duration
      c.firstLaunch = math.min(c.firstLaunch, ti.launchTime)
      c.lastFinish  = math.max(c.lastFinish, ti.finishTime)
      val m = e.taskMetrics
      if (m != null) {
        c.shuffleReadBytes  += m.shuffleReadMetrics.totalBytesRead
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Per-operation records of one layer, in operation order. */
  def of(layer: String): Seq[Call] = synchronized {
    calls.toSeq.filter(_._1._1 == layer).sortBy(_._1._2).map(_._2)
  }
}

object SparkLayers {
  /** What the jobs of one layer call did. */
  final class Call {
    var jobs = 0
    var stages = 0
    var tasks = 0
    var shuffleReadBytes = 0L
    var shuffleWriteBytes = 0L
    val taskMs = mutable.ArrayBuffer.empty[Long]
    var firstLaunch = Long.MaxValue
    var lastFinish = Long.MinValue
  }
}
