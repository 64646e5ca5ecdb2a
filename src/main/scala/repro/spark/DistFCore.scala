package repro.spark

import org.apache.spark.sql.{DataFrame, Observation}
import org.apache.spark.sql.functions._

/** Distributed fair α-β core pruning: the dataflow formulation of Alg 1
  * (`FCore`) and its bi-side variant (`BFCore`).
  *
  * Instead of the sequential peel, each round computes the currently
  * violating vertices with two aggregations and anti-joins them out; the
  * fixpoint equals the peeling fixpoint (cores are order-independent).
  * Rounds are O(core-peeling depth), each a shuffle — the standard
  * iterative-dataflow core decomposition.
  *
  * A round is one Spark action: the anti-joined edges are materialised by
  * `localCheckpoint()`, and an `Observation` on that same action counts the
  * surviving rows. Removing a violator removes at least one of its edges,
  * so a round that keeps every row found no violators: the peel has
  * converged.
  *
  * Input/output: the canonical edge table `[u, v, uval, vval]`
  * (`repro.graph.GraphIO.edgeSchema`). A vertex is "removed" when it has no
  * remaining edges.
  */
object DistFCore {

  /** Fair α-β core: U needs every V-attribute-class degree ≥ β, V needs
    * degree ≥ α.
    */
  def fairCore(edges: DataFrame, alpha: Int, beta: Int, nAttrV: Int,
               maxRounds: Int = 1000): DataFrame =
    peel(edges, maxRounds, 0L)(fair(alpha, beta, nAttrV))

  /** Bi-fair α-β core (Def 13): V-vertices are peeled on per-U-attribute
    * degree < α instead of total degree.
    */
  def biFairCore(edges: DataFrame, alpha: Int, beta: Int, nAttrU: Int, nAttrV: Int,
                 maxRounds: Int = 1000): DataFrame =
    peel(edges, maxRounds, 0L)(biFair(alpha, beta, nAttrU, nAttrV))

  /** The fair core (bi-fair when `bi`) peeled only until a round leaves at
    * most `bound` edges: a superset of the core, which a local FCore/BFCore
    * peel of the collected rows finishes exactly (DESIGN.md §2).
    */
  private[spark] def coreAtMost(edges: DataFrame, alpha: Int, beta: Int, bi: Boolean,
                                nAttrU: Int, nAttrV: Int, bound: Long): DataFrame =
    peel(edges, 1000, bound)(if (bi) biFair(alpha, beta, nAttrU, nAttrV) else fair(alpha, beta, nAttrV))

  private def fair(alpha: Int, beta: Int, nAttrV: Int)(e: DataFrame): (DataFrame, DataFrame) =
    (classViolators(e, "u", "vval", beta, nAttrV),
     e.groupBy("v").agg(count(lit(1)).as("c")).where(col("c") < alpha).select("v"))

  private def biFair(alpha: Int, beta: Int, nAttrU: Int, nAttrV: Int)(e: DataFrame): (DataFrame, DataFrame) =
    (classViolators(e, "u", "vval", beta, nAttrV), classViolators(e, "v", "uval", alpha, nAttrU))

  /** Vertices of `side` with fewer than `k` edges into some class of `cls`.
    * A class with no edges at all counts as degree 0 — hence the class
    * count, one row per (vertex, class) after the first aggregation.
    */
  private def classViolators(e: DataFrame, side: String, cls: String, k: Int, nClasses: Int): DataFrame =
    e.groupBy(side, cls).agg(count(lit(1)).as("c"))
      .groupBy(side).agg(min("c").as("minc"), count(lit(1)).as("ncls"))
      .where(col("minc") < k || col("ncls") < nClasses)
      .select(side)

  /** Materialise `df` with one action and return it with its row count. */
  private def checkpointCounted(df: DataFrame): (DataFrame, Long) = {
    val rows = Observation()
    val out  = df.observe(rows, count(lit(1)).as("n")).localCheckpoint()
    (out, rows.get("n").asInstanceOf[Long])
  }

  /** Remove the violators `bad` finds, a round at a time, until a round
    * removes nothing or leaves at most `bound` edges. Throws once
    * `maxRounds` removal rounds leave violators behind: the pass after
    * round `maxRounds` is the check.
    */
  private def peel(edges: DataFrame, maxRounds: Int, bound: Long)
                  (bad: DataFrame => (DataFrame, DataFrame)): DataFrame = {
    @annotation.tailrec
    def round(e: DataFrame, n: Long, rounds: Int): DataFrame = {
      val (badU, badV) = bad(e)
      val (next, kept) =
        checkpointCounted(e.join(badU, Seq("u"), "left_anti").join(badV, Seq("v"), "left_anti"))
      if (kept == n) next
      else if (rounds == maxRounds)
        throw new IllegalStateException(s"DistFCore did not converge in $maxRounds rounds")
      else if (kept <= bound) next
      else round(next, kept, rounds + 1)
    }
    val (e0, n0) = checkpointCounted(edges.select("u", "v", "uval", "vval"))
    round(e0, n0, 0)
  }
}
