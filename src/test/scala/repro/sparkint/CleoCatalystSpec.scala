package repro.sparkint

import org.apache.spark.sql.catalyst.plans.logical.{SHUFFLE_HASH, SHUFFLE_MERGE}
import org.apache.spark.sql.execution.joins.{ShuffledHashJoinExec, SortMergeJoinExec}
import repro.SparkSpec

class CleoCatalystSpec extends SparkSpec {

  private lazy val tables = TpchLite.register(spark, 0.005)
  private def q12 = TpchLite.queries.find(_.name == "Q12").get.sql(1)

  /** Joins in the executed physical plan under `cfg` (AQE is off there, so
    * the plan is flat).
    */
  private def executedJoins(sql: String, cfg: CleoCatalyst.Config): Seq[String] =
    CleoCatalyst.withConfig(spark, cfg) {
      val df = spark.sql(sql)
      df.write.format("noop").mode("overwrite").save()
      df.queryExecution.executedPlan.collect {
        case _: SortMergeJoinExec    => "merge"
        case _: ShuffledHashJoinExec => "hash"
      }
    }

  test("without the rule, equi-joins plan as sort-merge (broadcast disabled)") {
    tables // force registration
    CleoCatalyst.disable(spark)
    // the hash hint is set but the rule that reads it is not installed
    val joins = executedJoins(q12, CleoCatalyst.Config("hash", 64))
    assert(joins.nonEmpty && joins.forall(_ == "merge"), joins.toString)
  }

  test("the injected rule switches physical joins to shuffled-hash") {
    tables
    CleoCatalyst.enable(spark)
    try {
      val joins = executedJoins(q12, CleoCatalyst.Config("hash", 64))
      assert(joins.nonEmpty && joins.forall(_ == "hash"), joins.toString)
    } finally CleoCatalyst.disable(spark)
  }

  test("runOnce respects the configured shuffle partition count") {
    tables
    val q = TpchLite.queries.find(_.name == "Q1").get
    val (wall, cpu) = CleoCatalyst.runOnce(spark, q.sql(1), CleoCatalyst.Config("merge", 7))
    assert(wall > 0 && cpu >= 0)
    // conf restored afterwards
    assert(spark.conf.get("spark.sql.shuffle.partitions") == "64")
  }

  test("hash-forced plans return the same rows as merge plans") {
    tables
    val q = TpchLite.queries.find(_.name == "Q5").get
    def rows(cfg: CleoCatalyst.Config): Set[String] = {
      CleoCatalyst.enable(spark)
      // round revenue: summation order differs between join algorithms
      CleoCatalyst.withConfig(spark, cfg)(spark.sql(q.sql(2)).collect())
        .map(r => s"${r.get(0)}:${f"${r.getDouble(1)}%.4e"}").toSet
    }
    assert(rows(CleoCatalyst.Config("merge", 8)) == rows(CleoCatalyst.Config("hash", 8)))
  }

  test("withConfig applies partitions, AQE off and the hint, then restores all three") {
    def settings = (spark.conf.get("spark.sql.shuffle.partitions"),
      spark.conf.get("spark.sql.adaptive.enabled"), CleoJoinHintRule.hint)
    CleoJoinHintRule.hint = Some(SHUFFLE_MERGE)
    try {
      val before = settings
      assert(before == ("64", "true", Some(SHUFFLE_MERGE)))
      assert(CleoCatalyst.withConfig(spark, CleoCatalyst.Config("hash", 7))(settings) ==
        ("7", "false", Some(SHUFFLE_HASH)))
      assert(settings == before)
      intercept[IllegalStateException] {
        CleoCatalyst.withConfig(spark, CleoCatalyst.Config("hash", 9)) {
          assert(settings == ("9", "false", Some(SHUFFLE_HASH)))
          throw new IllegalStateException("query failed")
        }
      }
      assert(settings == before)
    } finally CleoJoinHintRule.hint = None
  }

  test("partition fit recovers a + θP/P + θC·P") {
    val truth = CleoCatalyst.PartitionFit(2.0, 120.0, 0.05)
    val obs = Seq(2, 4, 8, 16, 32, 64, 128).map(p => (p, truth.predict(p)))
    val fit = CleoCatalyst.fitPartitionModel(obs).get
    assert(math.abs(fit.a - 2.0) < 1e-6)
    assert(math.abs(fit.thetaP - 120.0) < 1e-4)
    assert(math.abs(fit.thetaC - 0.05) < 1e-6)
    assert(fit.optimum(2, 256) == math.round(math.sqrt(120.0 / 0.05)).toInt)
  }

  test("partition fit optimum respects bounds") {
    val fit = CleoCatalyst.PartitionFit(1.0, 1e7, 0.0001)
    assert(fit.optimum(2, 64) == 64)
    val fit2 = CleoCatalyst.PartitionFit(1.0, 0.1, 10.0)
    assert(fit2.optimum(2, 64) == 2)
  }

  test("enable/disable are idempotent") {
    CleoCatalyst.enable(spark)
    CleoCatalyst.enable(spark)
    assert(spark.experimental.extraOptimizations.count(_ == CleoJoinHintRule) == 1)
    CleoCatalyst.disable(spark)
    assert(!spark.experimental.extraOptimizations.contains(CleoJoinHintRule))
  }
}
