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
  * paper's pruning) is collected, colourful-core pruned to a compact
  * graph, and broadcast inside the searcher;
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
            nAttrU: Int = 2, nAttrV: Int = 2): DataFrame =
    enumerate(spark, DistFCore.fairCore(edges, p.alpha, p.beta, nAttrV), p, ordering, bi = false, nAttrU, nAttrV)

  /** Enumerate bi-side fair bicliques: distributed BFCore, local BCFCore,
    * then the root-parallel SSFBC search with the left-side expansion of
    * each phase-1 result in the same task.
    */
  def bsfbc(spark: SparkSession, edges: DataFrame, p: FairParams,
            ordering: VertexOrdering = VertexOrdering.DegOrd,
            nAttrU: Int = 2, nAttrV: Int = 2): DataFrame =
    enumerate(spark, DistFCore.biFairCore(edges, p.alpha, p.beta, nAttrU, nAttrV), p, ordering, bi = true, nAttrU, nAttrV)

  /** Steps (2)-(4) on the distributed core `prunedDf`: collect it, prune
    * it with CFCore (BCFCore when `bi`), and fan the search out over its
    * roots.
    */
  private def enumerate(spark: SparkSession, prunedDf: DataFrame, p: FairParams, ordering: VertexOrdering,
                        bi: Boolean, nAttrU: Int, nAttrV: Int): DataFrame = {
    val loc = GraphIO.toLocal(prunedDf, nAttrU, nAttrV)
    val c   = if (bi) CFCore.biPruned(loc.graph, p.alpha, p.beta) else CFCore.pruned(loc.graph, p.alpha, p.beta)

    // The search and the expansion emit ids of the compact graph; toDF maps
    // them straight to the input's ids.
    val searcher = new FairBCEMpp.Searcher(c.graph, null, null, p, proportional = false)
    toDF(spark, fanOut(spark.sparkContext, searcher, ordering, if (bi) Some(p) else None),
         c.uIds.map(loc.uIds), c.vIds.map(loc.vIds))
  }

  /** The root fan-out: broadcast the searcher and its roots, then run
    * every root in a Spark task. No root is skipped for the C-set; that is
    * complete and duplicate-free (DESIGN.md §3).
    * With `expandAt = Some(p)` the task expands each result on the left
    * (Alg 9 lines 4-8) at `p`, on the broadcast searcher's own graph.
    */
  private def fanOut(sc: SparkContext, searcher: RootSearch, ordering: VertexOrdering,
                     expandAt: Option[FairParams]): RDD[Biclique] = {
    val roots = searcher.roots(ordering)
    val bs    = sc.broadcast(searcher)
    val br    = sc.broadcast(roots)
    sc.parallelize(roots.indices, math.min(roots.length max 1, sc.defaultParallelism * 4))
      .flatMap { i =>
        val s   = bs.value
        val buf = Vector.newBuilder[Biclique]
        s.runRoot(br.value, i, b => expandAt match {
          case None    => buf += b
          case Some(p) => buf ++= BiFair.expandLeft(s.g, p, b, proportional = false)
        })
        buf.result()
      }
  }

  /** Map compact ids to the original ones (`uIds`, `vIds`) through one
    * broadcast of the id arrays, partition by partition.
    */
  private def toDF(spark: SparkSession, bicliques: RDD[Biclique],
                   uIds: Array[Long], vIds: Array[Long]): DataFrame = {
    val ids  = spark.sparkContext.broadcast((uIds, vIds))
    val rows = bicliques.map { b =>
      val (uIds, vIds) = ids.value
      Row(b.left.map(u => uIds(u)), b.right.map(v => vIds(v)))
    }
    spark.createDataFrame(rows, resultSchema)
  }
}
