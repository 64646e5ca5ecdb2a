package perfbench

import repro.bipartite.{BipartiteConfig, SynthBipartite}
import repro.graph.BipartiteGraph

/** A dataset analogue with both vertex sides relabelled by a permutation
  * drawn from the workload seed.
  *
  * Each seed hands the program a different graph (other adjacency layout,
  * other id tie-breaks in the vertex orderings) that is isomorphic to the
  * configured one, so the result set at every seed is known exactly: map
  * the output back through the inverse permutation and compare it with the
  * digest recorded for the dataset. Regenerating the graph from the seed
  * instead would change the result count by up to 2x between seeds (imdb-s:
  * 71k to 145k single-side results) and hide regressions in that spread.
  */
final class Input(cfg: BipartiteConfig, seed: Long) {

  private val (genMs, origU, origV, relabelled) = {
    val t0   = System.nanoTime()
    val g    = SynthBipartite.generate(cfg)
    val ms   = (System.nanoTime() - t0) / 1e6
    val rng  = new scala.util.Random(seed)
    val newU = rng.shuffle(Vector.range(0, g.nU)).toArray
    val newV = rng.shuffle(Vector.range(0, g.nV)).toArray
    val origU = new Array[Int](g.nU)
    val origV = new Array[Int](g.nV)
    for (u <- 0 until g.nU) origU(newU(u)) = u
    for (v <- 0 until g.nV) origV(newV(v)) = v
    val edges = for (u <- 0 until g.nU; v <- g.adjU(u)) yield (newU(u), newV(v))
    (ms, origU, origV, BipartiteGraph.fromEdges(g.nU, g.nV, edges,
      origU.map(g.attrU), origV.map(g.attrV), g.nAttrU, g.nAttrV))
  }

  /** Wall time of `SynthBipartite.generate` alone. */
  def generateMs: Double = genMs

  def graph: BipartiteGraph = relabelled

  /** Digest builder that maps ids of `graph` back to the configured ids. */
  def digest(): Digest.Builder = new Digest.Builder(origU, origV)
}

/** Order-independent fingerprint of a result set: its size and the sum of
  * one 64-bit hash per biclique, each taken over the sorted original ids of
  * both sides. A missing, extra, duplicated or altered biclique changes it.
  */
final case class Digest(count: Long, hash: Long) {
  override def toString: String = f"$count results, hash $hash%016x"
}

object Digest {
  final class Builder(origU: Array[Int], origV: Array[Int]) {
    private var count = 0L
    private var hash  = 0L

    /** `query` separates the result sets of a workload that runs several. */
    def add(query: Int, left: Iterable[Int], right: Iterable[Int]): Unit = {
      var h = mix(query + 1L)
      left.map(origU(_)).toArray.sorted.foreach(u => h = mix(h ^ u))
      h = mix(h ^ -1L)
      right.map(origV(_)).toArray.sorted.foreach(v => h = mix(h ^ v))
      count += 1
      hash += h
    }

    def addIds(query: Int, left: Iterable[Long], right: Iterable[Long]): Unit =
      add(query, left.map(_.toInt), right.map(_.toInt))

    def result: Digest = Digest(count, hash)
  }

  /** SplitMix64 finaliser. */
  private def mix(x0: Long): Long = {
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }
}
