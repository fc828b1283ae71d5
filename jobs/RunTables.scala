package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments._

/** Table 1 — elastic-net loss-function comparison. */
object Table1 {
  def main(args: Array[String]): Unit = println(Tables.table1().render)
}

/** Table 4 — ML algorithms on operator-subgraph models. */
object Table4 {
  def main(args: Array[String]): Unit = println(Tables.table4().render)
}

/** Table 5 — accuracy/coverage of the learned model families. */
object Table5 {
  def main(args: Array[String]): Unit = println(Tables.table5().render)
}

/** Table 6 — meta-learner choice for the combined model. */
object Table6 {
  def main(args: Array[String]): Unit = println(Tables.table6().render)
}

/** Table 7 — all-jobs vs ad-hoc breakdown on cluster 1. */
object Table7 {
  def main(args: Array[String]): Unit = println(Tables.table7().render)
}

/** Table 8 — default vs learned across the four clusters. */
object Table8 {
  def main(args: Array[String]): Unit = println(Tables.table8().render)
}

/** Figure 9 analog — workload composition summary. */
object WorkloadSummary {
  def main(args: Array[String]): Unit = println(Tables.workloadSummary().render)
}

/** §6.4 — CardLearner comparison. */
object CardLearnerJob {
  def main(args: Array[String]): Unit = println(Tables.cardLearner().render)
}

/** §6.5 — partition exploration accuracy vs efficiency. */
object PartitionExplorationJob {
  def main(args: Array[String]): Unit = println(Tables.partitionExploration().render)
}

/** §6.6.1 — plan/resource changes on the production-like workload. */
object PlanPerformanceJob {
  def main(args: Array[String]): Unit = println(Tables.planPerformance().render)
}

/** §6.6.2 — TPC-H-lite on real Spark through the Catalyst retrofit. */
object TpchJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("cleo-tpch")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val sf = args.headOption.map(_.toDouble).getOrElse(0.05)
      println(TpchExperiment.table(TpchExperiment.run(spark, sf, oracleSf = 0.005)).render)
    } finally spark.stop()
  }
}

/** §6.6.3 — training and runtime overheads. */
object OverheadsJob {
  def main(args: Array[String]): Unit = println(Tables.overheads().render)
}

/** Feature-weight report (Figure 5/6 analog, Tables 2–3 as code). */
object FeatureWeights {
  def main(args: Array[String]): Unit = {
    val set = Workloads.trained(1)
    val nets = set.sub.values.map(_.net).toSeq
    val dim = repro.core.Features.dim
    val sums = new Array[Double](dim)
    nets.foreach { m => var j = 0; while (j < dim) { sums(j) += math.abs(m.weights(j)); j += 1 } }
    val total = sums.sum
    val rows = repro.core.Features.names.zip(sums)
      .sortBy(-_._2)
      .map { case (n, w) => Seq(n, f"${100.0 * w / math.max(1e-12, total)}%.2f%%") }
    println(TableResult("Figure 5 analog — aggregate normalized |weight| per feature (op-subgraph)",
      Seq("Feature", "normalized weight"), rows).render)
  }
}
