package repro.spark

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core._
import repro.graph.{BipartiteGraph, GraphIO}

/** End-to-end distributed enumeration driver.
  *
  * Shape: (1) the edge table is collected to the driver once it has at
  * most `collectBound` rows; until then distributed fair-core rounds
  * (`DistFCore`) shrink it, and they stop at the first round that leaves
  * at most that many. A table at or under the bound is collected at once,
  * with no round. (2) On the driver, `CFCore.pruned`/`biPruned` begins
  * with a full local FCore/BFCore peel, which finishes the core exactly
  * (peeling any superset of the unique core reaches that core), and
  * prunes it to a compact graph that is broadcast inside the searcher;
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
    enumerate(spark, edges, p, ordering, bi = false, nAttrU, nAttrV, collectBound(spark.sparkContext))

  /** Enumerate bi-side fair bicliques: BFCore, BCFCore, then the
    * root-parallel SSFBC search with the left-side expansion of each
    * phase-1 result in the same task.
    */
  def bsfbc(spark: SparkSession, edges: DataFrame, p: FairParams,
            ordering: VertexOrdering = VertexOrdering.DegOrd,
            nAttrU: Int = 2, nAttrV: Int = 2): DataFrame =
    enumerate(spark, edges, p, ordering, bi = true, nAttrU, nAttrV, collectBound(spark.sparkContext))

  /** Driver bytes per collected edge row (DESIGN.md §2): its task result
    * is 24 bytes serialised, and `GraphIO.collect` plus `GraphIO.build`
    * hold or allocate at most 256 bytes of heap (measured: `build`
    * allocates about 175 bytes per row on 46k- and 85k-row tables; the
    * serialised, per-partition and concatenated rows are 24 bytes each).
    */
  private val ResultBytesPerRow = 24L
  private val HeapBytesPerRow   = 256L

  /** The most edge rows the driver collects: as many as fit both
    * `spark.driver.maxResultSize` (0: no limit) and a quarter of the driver
    * heap. The rest of the heap is left to the pruning and search set-up
    * the driver runs anyway, and to Spark's own driver state.
    */
  private def collectBound(sc: SparkContext): Long = {
    val maxResult = sc.getConf.getSizeAsBytes("spark.driver.maxResultSize", "1g")
    val byResult  = if (maxResult == 0) Long.MaxValue else maxResult / ResultBytesPerRow
    math.min(math.min(byResult, Runtime.getRuntime.maxMemory / 4 / HeapBytesPerRow), Int.MaxValue)
  }

  /** `ssfbc` (`bsfbc` when `bi`) with the table collected once it has at
    * most `bound` rows. Bound 0 peels to the distributed fixpoint first.
    */
  private[spark] def enumerate(spark: SparkSession, edges: DataFrame, p: FairParams, ordering: VertexOrdering,
                               bi: Boolean, nAttrU: Int, nAttrV: Int, bound: Long): DataFrame = {
    val (g, uIds, vIds) = prune(edges, p, bi, nAttrU, nAttrV, bound)
    // The search and the expansion emit ids of the compact graph; toDF maps
    // them straight to the input's ids.
    val searcher = new FairBCEMpp.Searcher(g, null, null, p, proportional = false)
    toDF(spark, fanOut(spark.sparkContext, searcher, ordering, if (bi) Some(p) else None), uIds, vIds)
  }

  /** Steps (1) and (2): the compact graph the search runs on, with the
    * input ids of its U and V vertices.
    */
  private[spark] def prune(edges: DataFrame, p: FairParams, bi: Boolean, nAttrU: Int, nAttrV: Int,
                           bound: Long): (BipartiteGraph, Array[Long], Array[Long]) = {
    val rows = GraphIO.collectAtMost(edges, bound).getOrElse(
      GraphIO.collect(DistFCore.coreAtMost(edges, p.alpha, p.beta, bi, nAttrU, nAttrV, bound)))
    val loc  = GraphIO.build(rows, nAttrU, nAttrV)
    val c    = if (bi) CFCore.biPruned(loc.graph, p.alpha, p.beta) else CFCore.pruned(loc.graph, p.alpha, p.beta)
    (c.graph, c.uIds.map(loc.uIds), c.vIds.map(loc.vIds))
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
