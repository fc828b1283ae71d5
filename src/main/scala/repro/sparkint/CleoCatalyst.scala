package repro.sparkint

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.plans.logical.{HintInfo, Join, JoinHint, JoinStrategyHint, LogicalPlan, SHUFFLE_HASH, SHUFFLE_MERGE}
import org.apache.spark.sql.catalyst.rules.Rule

/** CLEO retrofit into Catalyst (the paper's Section 5 applied to Spark, as it
  * suggests for "other big data systems such as Spark ... that use variants
  * of Cascades optimizers").
  *
  *  - Physical operator choice: [[CleoJoinHintRule]], injected through
  *    `spark.experimental.extraOptimizations`, steers `JoinSelection` by
  *    attaching the learned-cost-chosen join-strategy hint to each equi-join
  *    (minimally invasive — no planner fork).
  *  - Resource choice: the per-stage partition count of SCOPE maps to
  *    `spark.sql.shuffle.partitions`; the learned analytical partition model
  *    `t(P) = a + θP/P + θC·P` (Section 5.3) is fit per query template from
  *    observed runtimes and minimized in closed form.
  */
object CleoJoinHintRule extends Rule[LogicalPlan] {
  /** Strategy to force for the current optimization, if any. */
  @volatile var hint: Option[JoinStrategyHint] = None

  override def apply(plan: LogicalPlan): LogicalPlan = hint match {
    case None => plan
    case Some(h) =>
      plan.transformUp {
        case j: Join if j.hint.leftHint.isEmpty && j.hint.rightHint.isEmpty =>
          j.copy(hint = JoinHint(Some(HintInfo(Some(h))), Some(HintInfo(Some(h)))))
      }
  }
}

object CleoCatalyst {

  /** Candidate physical configuration for one query. */
  final case class Config(join: String /* "merge" | "hash" */, partitions: Int) {
    def strategyHint: JoinStrategyHint = join match {
      case "hash" => SHUFFLE_HASH
      case _      => SHUFFLE_MERGE
    }
  }

  /** Installs the learned-cost hint rule once per session. */
  def enable(spark: SparkSession): Unit = {
    val cur = spark.experimental.extraOptimizations
    if (!cur.contains(CleoJoinHintRule))
      spark.experimental.extraOptimizations = cur :+ CleoJoinHintRule
  }

  def disable(spark: SparkSession): Unit = {
    CleoJoinHintRule.hint = None
    spark.experimental.extraOptimizations =
      spark.experimental.extraOptimizations.filterNot(_ == CleoJoinHintRule)
  }

  private final class TaskTimeListener extends SparkListener {
    val runTimeMs = new java.util.concurrent.atomic.AtomicLong(0)
    override def onTaskEnd(taskEnd: SparkListenerTaskEnd): Unit = {
      val m = taskEnd.taskMetrics
      if (m != null) runTimeMs.addAndGet(m.executorRunTime)
    }
  }

  /** Runs `body` under a configuration: its shuffle partition count, AQE off
    * (so that count is the one Spark uses) and its join-strategy hint. All
    * three settings are restored afterwards, also when `body` throws. The hint
    * acts only once [[enable]] has installed the rule.
    */
  def withConfig[T](spark: SparkSession, cfg: Config)(body: => T): T = {
    val prevParts = spark.conf.get("spark.sql.shuffle.partitions")
    val prevAqe = spark.conf.get("spark.sql.adaptive.enabled")
    val prevHint = CleoJoinHintRule.hint
    try {
      spark.conf.set("spark.sql.shuffle.partitions", cfg.partitions.toString)
      spark.conf.set("spark.sql.adaptive.enabled", "false")
      CleoJoinHintRule.hint = Some(cfg.strategyHint)
      body
    } finally {
      CleoJoinHintRule.hint = prevHint
      spark.conf.set("spark.sql.shuffle.partitions", prevParts)
      spark.conf.set("spark.sql.adaptive.enabled", prevAqe)
    }
  }

  /** Runs a query under a configuration ([[withConfig]]); returns (wall
    * seconds, cpu seconds). The result sink is the noop DSv2 source, so the
    * full pipeline executes without materialization overhead.
    */
  def runOnce(spark: SparkSession, sql: String, cfg: Config): (Double, Double) = {
    enable(spark)
    val listener = new TaskTimeListener
    spark.sparkContext.addSparkListener(listener)
    try withConfig(spark, cfg) {
      val t0 = System.nanoTime()
      spark.sql(sql).write.format("noop").mode("overwrite").save()
      ((System.nanoTime() - t0) / 1e9, listener.runTimeMs.get() / 1e3)
    } finally spark.sparkContext.removeSparkListener(listener)
  }

  /** Learned per-(query, join-strategy) latency model `t(P) = a + θP/P + θC·P`. */
  final case class PartitionFit(a: Double, thetaP: Double, thetaC: Double) {
    def predict(p: Int): Double = a + thetaP / p + thetaC * p
    /** Closed-form optimum over [pMin, pMax] (§5.3, see [[repro.planner.PartitionExplorer.optimum]]). */
    def optimum(pMin: Int, pMax: Int): Int =
      repro.planner.PartitionExplorer.optimum(thetaP, thetaC, pMin.toDouble, pMax.toDouble)
  }

  def fitPartitionModel(obs: Seq[(Int, Double)]): Option[PartitionFit] =
    repro.ml.SmallSolve
      .lsq3(obs.map { case (p, t) => (Array(1.0, 1.0 / p, p.toDouble), t) })
      .map(w => PartitionFit(w(0), w(1), w(2)))

  /** Collects training observations and fits models for every query × join
    * strategy over the partition grid (the paper's parameterized training
    * runs), then returns per-query decisions.
    */
  final case class Decision(query: String, cfg: Config, predicted: Double)

  /** The bounds of the shuffle partition count a decision may choose. */
  private val PMin = 2
  private val PMax = 256

  def decide(spark: SparkSession, queries: Seq[TpchLite.Query], params: Seq[Int], pGrid: Seq[Int])
      : (Seq[Decision], Map[(String, String), PartitionFit]) = {
    val fits = scala.collection.mutable.Map.empty[(String, String), PartitionFit]
    val decisions = queries.map { q =>
      val perJoin = Seq("merge", "hash").flatMap { join =>
        val obs = for (p <- pGrid; prm <- params) yield {
          val (wall, _) = runOnce(spark, q.sql(prm), Config(join, p))
          (p, wall)
        }
        fitPartitionModel(obs).map { fit =>
          fits((q.name, join)) = fit
          val pStar = fit.optimum(PMin, PMax)
          Decision(q.name, Config(join, pStar), fit.predict(pStar))
        }
      }
      perJoin.minBy(_.predicted)
    }
    (decisions, fits.toMap)
  }
}
