package repro.graph

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** Conversions between the canonical edge DataFrame and the in-memory
  * `BipartiteGraph`.
  *
  * The canonical dataflow schema is a single attributed edge table
  * `[u: bigint, v: bigint, uval: int, vval: int]` — denormalised so every
  * per-side aggregation (degrees, attribute degrees, 2-hop joins) is a
  * single groupBy without an attribute join.
  */
object GraphIO {

  val edgeSchema: StructType = StructType(Seq(
    StructField("u", LongType, nullable = false),
    StructField("v", LongType, nullable = false),
    StructField("uval", IntegerType, nullable = false),
    StructField("vval", IntegerType, nullable = false),
  ))

  /** Local graph → edge DataFrame; vertex ids are the local indices. */
  def toEdgeDF(spark: SparkSession, g: BipartiteGraph): DataFrame = {
    val rows = for {
      u <- (0 until g.nU).iterator
      v <- g.adjU(u).iterator
    } yield Row(u.toLong, v.toLong, g.attrU(u), g.attrV(v))
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.toSeq, math.max(1, spark.sparkContext.defaultParallelism)),
      edgeSchema)
  }

  /** Collected edge rows, one primitive column per field of `edgeSchema`. */
  final class EdgeRows(val u: Array[Long], val v: Array[Long], val uval: Array[Int], val vval: Array[Int])
      extends Serializable {
    def size: Int = u.length
  }

  /** Edge DataFrame → local graph plus the id mappings (dense local index
    * → original long id). Vertices with no edges in the frame are dropped —
    * pruning phases express removal as edge removal.
    */
  final case class Localized(graph: BipartiteGraph, uIds: Array[Long], vIds: Array[Long])

  /** `build(collect(edges), nAttrU, nAttrV)`.
    *
    * @throws IllegalArgumentException when a vertex's rows disagree on its
    *         attribute, or an attribute lies outside `0 until nAttr*`.
    */
  def toLocal(edges: DataFrame, nAttrU: Int = 2, nAttrV: Int = 2): Localized =
    build(collect(edges), nAttrU, nAttrV)

  /** Every row of `edges`, in one Spark job. */
  def collect(edges: DataFrame): EdgeRows = collectAtMost(edges, Long.MaxValue).get

  /** The rows of `edges` if it has at most `maxRows` of them, else `None`.
    *
    * A partition ships its rows only while they fit its share of `maxRows`
    * (`maxRows` / partitions), and only its row count otherwise, so the
    * driver never receives more than `maxRows` rows. That is one Spark job,
    * and a second one, for the partitions over their share, only when they
    * are uneven and the total is still at most `maxRows`.
    */
  def collectAtMost(edges: DataFrame, maxRows: Long): Option[EdgeRows] = {
    val rdd   = edges.select("u", "v", "uval", "vval").rdd
    val sc    = rdd.sparkContext
    val share = maxRows / math.max(1, rdd.getNumPartitions)
    val parts = sc.runJob(rdd, (it: Iterator[Row]) => take(it, share))
    if (parts.iterator.map(_._1).sum > maxRows) None
    else {
      val over    = parts.indices.filter(parts(_)._2 == null)
      val fetched =
        if (over.isEmpty) Array.empty[EdgeRows]
        else sc.runJob(rdd, (it: Iterator[Row]) => take(it, Long.MaxValue)._2, over)
      val rows = parts.map(_._2).filter(_ != null) ++ fetched
      Some(new EdgeRows(Array.concat(rows.map(_.u): _*), Array.concat(rows.map(_.v): _*),
                        Array.concat(rows.map(_.uval): _*), Array.concat(rows.map(_.vval): _*)))
    }
  }

  /** The row count of `it`, with its rows if there are at most `share`. */
  private def take(it: Iterator[Row], share: Long): (Long, EdgeRows) = {
    val u = Array.newBuilder[Long]; val v = Array.newBuilder[Long]
    val uval = Array.newBuilder[Int]; val vval = Array.newBuilder[Int]
    var n = 0L
    while (n < share && it.hasNext) {
      val r = it.next()
      u += r.getLong(0); v += r.getLong(1); uval += r.getInt(2); vval += r.getInt(3)
      n += 1
    }
    if (!it.hasNext) (n, new EdgeRows(u.result(), v.result(), uval.result(), vval.result()))
    else (n + it.size, null)
  }

  /** Collected rows → local graph. Every row's attributes are checked.
    *
    * @throws IllegalArgumentException when a vertex's rows disagree on its
    *         attribute, or an attribute lies outside `0 until nAttr*`.
    */
  def build(rows: EdgeRows, nAttrU: Int = 2, nAttrV: Int = 2): Localized = {
    val uIds = sortedDistinct(rows.u)
    val vIds = sortedDistinct(rows.v)
    val attrU = Array.fill(uIds.length)(-1)
    val attrV = Array.fill(vIds.length)(-1)
    def setAttr(side: String, attr: Array[Int], i: Int, id: Long, a: Int, nAttr: Int): Unit = {
      require(a >= 0 && a < nAttr, s"$side vertex $id has attribute $a outside 0 until $nAttr")
      require(attr(i) < 0 || attr(i) == a, s"$side vertex $id has conflicting attributes ${attr(i)} and $a")
      attr(i) = a
    }
    // Edge (ui, vi) as the key ui·2^32 + vi: sorted, the keys list adjU in
    // order, and a stable pass over them fills every adjV list in order.
    val keys = new Array[Long](rows.size)
    var i = 0
    while (i < keys.length) {
      val ui = java.util.Arrays.binarySearch(uIds, rows.u(i))
      val vi = java.util.Arrays.binarySearch(vIds, rows.v(i))
      setAttr("U", attrU, ui, rows.u(i), rows.uval(i), nAttrU)
      setAttr("V", attrV, vi, rows.v(i), rows.vval(i), nAttrV)
      keys(i) = ui.toLong << 32 | vi
      i += 1
    }
    val edges = sortedDistinct(keys)
    val us    = edges.map(k => (k >>> 32).toInt)
    val vs    = edges.map(_.toInt)
    Localized(new BipartiteGraph(lists(uIds.length, us, vs), lists(vIds.length, vs, us), attrU, attrV, nAttrU, nAttrV),
              uIds, vIds)
  }

  /** `xs` sorted, without repeats. */
  private def sortedDistinct(xs: Array[Long]): Array[Long] = {
    val s = xs.clone()
    java.util.Arrays.sort(s)
    var n = 0; var i = 0
    while (i < s.length) { if (n == 0 || s(i) != s(n - 1)) { s(n) = s(i); n += 1 }; i += 1 }
    java.util.Arrays.copyOf(s, n)
  }

  /** `n` lists, list `x` holding the `to(i)` with `from(i) == x` in order of `i`. */
  private def lists(n: Int, from: Array[Int], to: Array[Int]): Array[Array[Int]] = {
    val deg = new Array[Int](n)
    from.foreach(deg(_) += 1)
    val out = Array.tabulate(n)(x => new Array[Int](deg(x)))
    java.util.Arrays.fill(deg, 0)
    var i = 0
    while (i < from.length) { val x = from(i); out(x)(deg(x)) = to(i); deg(x) += 1; i += 1 }
    out
  }
}
