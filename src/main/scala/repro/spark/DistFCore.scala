package repro.spark

import org.apache.spark.sql.DataFrame
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
    peel(edges, maxRounds) { e =>
      (classViolators(e, "u", "vval", beta, nAttrV),
       e.groupBy("v").agg(count(lit(1)).as("c")).where(col("c") < alpha).select("v"))
    }

  /** Bi-fair α-β core (Def 13): V-vertices are peeled on per-U-attribute
    * degree < α instead of total degree.
    */
  def biFairCore(edges: DataFrame, alpha: Int, beta: Int, nAttrU: Int, nAttrV: Int,
                 maxRounds: Int = 1000): DataFrame =
    peel(edges, maxRounds) { e =>
      (classViolators(e, "u", "vval", beta, nAttrV), classViolators(e, "v", "uval", alpha, nAttrU))
    }

  /** Vertices of `side` with fewer than `k` edges into some class of `cls`.
    * A class with no edges at all counts as degree 0 — hence the
    * countDistinct guard.
    */
  private def classViolators(e: DataFrame, side: String, cls: String, k: Int, nClasses: Int): DataFrame =
    e.groupBy(side, cls).agg(count(lit(1)).as("c"))
      .groupBy(side).agg(min("c").as("minc"), countDistinct(cls).as("ncls"))
      .where(col("minc") < k || col("ncls") < nClasses)
      .select(side)

  /** Remove the violators `bad` finds, a round at a time, until there are
    * none. Throws once `maxRounds` removal rounds leave violators behind.
    */
  private def peel(edges: DataFrame, maxRounds: Int)(bad: DataFrame => (DataFrame, DataFrame)): DataFrame = {
    @annotation.tailrec
    def round(e: DataFrame, rounds: Int): DataFrame = {
      val (badU, badV) = bad(e)
      if (badU.count() + badV.count() == 0) e
      else if (rounds == maxRounds)
        throw new IllegalStateException(s"DistFCore did not converge in $maxRounds rounds")
      else round(e.join(badU, Seq("u"), "left_anti").join(badV, Seq("v"), "left_anti").localCheckpoint(),
                 rounds + 1)
    }
    round(edges.select("u", "v", "uval", "vval").localCheckpoint(), 0)
  }
}
