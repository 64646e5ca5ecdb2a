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

  /** Edge DataFrame → local graph plus the id mappings (dense local index
    * → original long id). Vertices with no edges in the frame are dropped —
    * pruning phases express removal as edge removal.
    */
  final case class Localized(graph: BipartiteGraph, uIds: Array[Long], vIds: Array[Long])

  /** @throws IllegalArgumentException when a vertex's rows disagree on its
    *         attribute, or an attribute lies outside `0 until nAttr*`.
    */
  def toLocal(edges: DataFrame, nAttrU: Int = 2, nAttrV: Int = 2): Localized = {
    val collected = edges.select("u", "v", "uval", "vval").collect()
    val uIds = collected.map(_.getLong(0)).distinct.sorted
    val vIds = collected.map(_.getLong(1)).distinct.sorted
    val uIdx = uIds.zipWithIndex.toMap
    val vIdx = vIds.zipWithIndex.toMap
    val attrU = Array.fill(uIds.length)(-1)
    val attrV = Array.fill(vIds.length)(-1)
    def setAttr(side: String, attr: Array[Int], i: Int, id: Long, a: Int, nAttr: Int): Unit = {
      require(a >= 0 && a < nAttr, s"$side vertex $id has attribute $a outside 0 until $nAttr")
      require(attr(i) < 0 || attr(i) == a, s"$side vertex $id has conflicting attributes ${attr(i)} and $a")
      attr(i) = a
    }
    val es = collected.map { r =>
      val ui = uIdx(r.getLong(0)); val vi = vIdx(r.getLong(1))
      setAttr("U", attrU, ui, r.getLong(0), r.getInt(2), nAttrU)
      setAttr("V", attrV, vi, r.getLong(1), r.getInt(3), nAttrV)
      (ui, vi)
    }
    Localized(BipartiteGraph.fromEdges(uIds.length, vIds.length, es, attrU, attrV, nAttrU, nAttrV),
              uIds, vIds)
  }
}
