package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bipartite.SynthBipartite
import repro.core._
import repro.exp.Experiments
import repro.graph.GraphIO
import repro.spark.DistEnum

/** Shared session builder and bodies for the spark-submit entrypoints. */
object JobSession {
  def build(name: String): SparkSession = SparkSession.builder()
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName(name)
    .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
    .getOrCreate()

  def datasetByName(name: String) =
    SynthBipartite.all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown dataset $name; expected one of ${SynthBipartite.all.map(_.name).mkString(", ")}"))

  /** The distributed runners: dataset, α, β, δ from `args`, defaulting to
    * the dataset's Table I values for the single- or bi-side model.
    */
  def runDistributed(args: Array[String], bi: Boolean): Unit = {
    val spark = build(if (bi) "bsfbc" else "ssfbc")
    val cfg   = datasetByName(args.headOption.getOrElse("youtube-s"))
    val d     = if (bi) Experiments.paramsBi(cfg) else Experiments.paramsSingle(cfg)
    def arg(i: Int, default: Int) = args.lift(i).map(_.toInt).getOrElse(default)
    val p   = FairParams(arg(1, d.alpha), arg(2, d.beta), arg(3, d.delta))
    val df  = GraphIO.toEdgeDF(spark, SynthBipartite.generate(cfg))
    val res = (if (bi) DistEnum.bsfbc(spark, df, p) else DistEnum.ssfbc(spark, df, p))
      .cache() // count + show: search once
    println(s"${cfg.name}: ${res.count()} ${if (bi) "bi" else "single"}-side fair bicliques at $p")
    res.show(10, truncate = false)
    spark.stop()
  }
}

/** Table I — dataset statistics and default parameters. */
object TableI {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("tableI")
    println("dataset        |U|       |V|       |E|    density  α*s β*s  α*b β*b   δ*  θ*")
    Experiments.tableI(spark).foreach(r => println(r.render))
    spark.stop()
  }
}

/** Table II — runtime of the four enumeration algorithms with both orderings. */
object TableII {
  def main(args: Array[String]): Unit = {
    val datasets = if (args.isEmpty) SynthBipartite.all else args.toSeq.map(JobSession.datasetByName)
    Experiments.tableII(datasets).foreach(r => println(r.render))
  }
}

/** Exp-1 — pruning effectiveness of FCore/CFCore (and BFCore/BCFCore). */
object Exp1Pruning {
  def main(args: Array[String]): Unit = {
    val cfg = JobSession.datasetByName(args.headOption.getOrElse("imdb-s"))
    val d   = SynthBipartite.defaults(cfg.name)
    Experiments.exp1Pruning(cfg, 2 to 6, 2 to 6, d.alphaS, d.betaS, bi = false).foreach(r => println(r.render))
    Experiments.exp1Pruning(cfg, 1 to 4, 1 to 4, d.alphaB, d.betaB, bi = true).foreach(r => println(r.render))
  }
}

/** Exp-4 — numbers of maximal bicliques, SSFBCs and BSFBCs. */
object Exp4Counts {
  def main(args: Array[String]): Unit = {
    val cfg = JobSession.datasetByName(args.headOption.getOrElse("wikicat-s"))
    for (varied <- Seq("alpha", "beta", "delta"))
      Experiments.exp4Counts(cfg, varied, valuesFor(varied)).foreach(r => println(r.render))
  }
  private def valuesFor(varied: String) = varied match {
    case "delta" => Seq(1, 2, 3)
    case _       => Seq(3, 4, 5)
  }
}

/** Exp-5 — scalability over 20%..100% edge samples. */
object Exp5Scale {
  def main(args: Array[String]): Unit = {
    val cfg = JobSession.datasetByName(args.headOption.getOrElse("dblp-s"))
    Experiments.exp5Scale(cfg, Seq(0.2, 0.4, 0.6, 0.8, 1.0)).foreach(r => println(r.render))
  }
}

/** Exp-7 — proportional models versus θ. */
object Exp7Proportion {
  def main(args: Array[String]): Unit = {
    val cfg = JobSession.datasetByName(args.headOption.getOrElse("youtube-s"))
    Experiments.exp7Proportion(cfg, Seq(0.1, 0.2, 0.3, 0.4, 0.5)).foreach(r => println(r.render))
  }
}

/** Generic distributed SSFBC runner: dataset, α, β, δ. */
object RunSSFBC {
  def main(args: Array[String]): Unit = JobSession.runDistributed(args, bi = false)
}

/** Generic distributed BSFBC runner: dataset, α, β, δ. */
object RunBSFBC {
  def main(args: Array[String]): Unit = JobSession.runDistributed(args, bi = true)
}

/** Mechanism analogue of the §V-C case studies (no tables in the paper):
  * on a recommendation-style attributed graph, the top-k neighbourhood of
  * a user can be attribute-one-sided, while SSFBCs containing the user mix
  * both attribute classes on the fair side by construction.
  */
object CaseStudy {
  def main(args: Array[String]): Unit = {
    val cfg = SynthBipartite.youtubeS.copy(nU = 400, nV = 200, blocks = 16, noiseEdges = 900, seed = 5150L)
    val g   = SynthBipartite.generate(cfg)
    val p   = FairParams(3, 2, 2)
    val res = FairBCEMpp.enumerate(g, p)
    println(s"found ${res.size} SSFBCs")
    val oneSided = (0 until g.nU).filter { u =>
      val c = FairSet.counts(g.adjU(u).toSeq, g.attrV, g.nAttrV)
      g.degU(u) >= 5 && c.exists(_ == 0)
    }
    println(s"${oneSided.size} users have one-sided (single-attribute) neighbourhoods of size ≥ 5")
    for (bc <- res.take(5)) {
      val c = FairSet.counts(bc.right, g.attrV, g.nAttrV)
      println(s"  SSFBC |L|=${bc.left.size} |R|=${bc.right.size} attr-mix=${c.mkString(":")}")
    }
  }
}
