package repro.spark

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core._
import repro.graph.GraphIO

/** End-to-end distributed enumeration driver.
  *
  * Shape: (1) distributed fair-core pruning over the edge DataFrame — this
  * is where the bulk data reduction happens and is pure dataflow; (2) the
  * surviving graph (small by construction: that is the point of the
  * paper's pruning) is collected, colourful-core pruned, and broadcast;
  * (3) the branch-and-bound search fans out over top-level roots, one
  * independent subproblem per root, via an RDD flatMap; (4) results come
  * back as a DataFrame in the original vertex ids, lazy and distributed:
  * steps (1) and (2) run when `ssfbc`/`bsfbc` is called, but the search
  * runs, partitioned like the fan-out, each time the frame is acted on.
  * Cache the frame to act on it more than once.
  */
object DistEnum {

  val resultSchema: StructType = StructType(Seq(
    StructField("l", ArrayType(LongType, containsNull = false), nullable = false),
    StructField("r", ArrayType(LongType, containsNull = false), nullable = false),
  ))

  /** Enumerate single-side fair bicliques of the attributed edge table. */
  def ssfbc(spark: SparkSession, edges: DataFrame, p: FairParams,
            ordering: VertexOrdering = VertexOrdering.DegOrd,
            plusPlus: Boolean = true, nAttrU: Int = 2, nAttrV: Int = 2): DataFrame = {
    val prunedDf = DistFCore.fairCore(edges, p.alpha, p.beta, nAttrV)
    val loc      = GraphIO.toLocal(prunedDf, nAttrU, nAttrV)
    val alive    = CFCore.prune(loc.graph, p.alpha, p.beta)
    val g        = loc.graph.restrict(alive.u, alive.v)

    val searcher =
      if (plusPlus) new FairBCEMpp.Searcher(g, alive, p, proportional = false)
      else new FairBCEM.Searcher(g, alive, p, naive = false)
    toDF(spark, fanOut(spark.sparkContext, searcher, ordering), loc)
  }

  /** Enumerate bi-side fair bicliques: distributed BFCore, local BCFCore,
    * then the root-parallel SSFBC search with the left-side expansion of
    * each phase-1 result in the same task.
    */
  def bsfbc(spark: SparkSession, edges: DataFrame, p: FairParams,
            ordering: VertexOrdering = VertexOrdering.DegOrd,
            nAttrU: Int = 2, nAttrV: Int = 2): DataFrame = {
    val prunedDf = DistFCore.biFairCore(edges, p.alpha, p.beta, nAttrU, nAttrV)
    val loc      = GraphIO.toLocal(prunedDf, nAttrU, nAttrV)
    val alive    = CFCore.biPrune(loc.graph, p.alpha, p.beta)
    val g        = loc.graph.restrict(alive.u, alive.v)

    val sc       = spark.sparkContext
    val searcher = new FairBCEMpp.Searcher(g, alive, p, proportional = false)
    val bg       = sc.broadcast(g)
    val results  = fanOut(sc, searcher, ordering)
      .flatMap(b => BiFair.expandLeft(bg.value, p, b, proportional = false))
    toDF(spark, results, loc)
  }

  /** The root fan-out: broadcast the searcher and its roots, then run
    * every root in a Spark task. No root is skipped for the C-set; that is
    * complete and duplicate-free for both searchers (DESIGN.md §3).
    */
  private def fanOut(sc: SparkContext, searcher: RootSearch, ordering: VertexOrdering): RDD[Biclique] = {
    val roots = searcher.roots(ordering)
    val bs    = sc.broadcast(searcher)
    val br    = sc.broadcast(roots)
    sc.parallelize(roots.indices, math.min(roots.length max 1, sc.defaultParallelism * 4))
      .flatMap { i =>
        val buf = Vector.newBuilder[Biclique]
        bs.value.runRoot(br.value, i, buf += _)
        buf.result()
      }
  }

  /** Map local ids back to the original ones through one broadcast of
    * the id arrays, partition by partition.
    */
  private def toDF(spark: SparkSession, bicliques: RDD[Biclique], loc: GraphIO.Localized): DataFrame = {
    val ids  = spark.sparkContext.broadcast((loc.uIds, loc.vIds))
    val rows = bicliques.map { b =>
      val (uIds, vIds) = ids.value
      Row(b.left.map(u => uIds(u)), b.right.map(v => vIds(v)))
    }
    spark.createDataFrame(rows, resultSchema)
  }
}
