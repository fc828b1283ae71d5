package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.Oracle
import repro.sparkint.{CleoCatalyst, TpchLite}

/** The real-Spark retrofit experiment (Section 6.6.2 analog): train per-query
  * partition/latency models from parameterized runs, let CLEO choose the join
  * strategy and shuffle partition count through Catalyst, execute default vs
  * CLEO plans, and verify result equality of changed plans with DuckDB.
  */
object TpchExperiment {

  final case class QueryOutcome(
      query: String,
      chosen: CleoCatalyst.Config,
      defaultSecs: Double,
      cleoSecs: Double,
      changed: Boolean,
      verified: Boolean,
  )

  private def minOf2(spark: SparkSession, sql: String, cfg: CleoCatalyst.Config): Double =
    (1 to 2).map(_ => CleoCatalyst.runOnce(spark, sql, cfg)._1).min

  /** The fixed shuffle partition count of the default plans. */
  private val DefaultPartitions = 64

  def run(spark: SparkSession, sf: Double, oracleSf: Double): Seq[QueryOutcome] = {
    TpchLite.register(spark, sf)
    // warm-up (JIT + codegen caches)
    CleoCatalyst.runOnce(spark, TpchLite.queries.head.sql(0), CleoCatalyst.Config("default", 16))

    val (decisions, _) =
      CleoCatalyst.decide(spark, TpchLite.queries, params = Seq(1, 2), pGrid = Seq(4, 16, 64))
    val byName = decisions.map(d => d.query -> d).toMap

    val evalParam = 3 // unseen parameter draw, like the paper's re-run
    val timed = TpchLite.queries.map { q =>
      val sql = q.sql(evalParam)
      val dflt = minOf2(spark, sql, CleoCatalyst.Config("default", DefaultPartitions))
      val chosen = byName(q.name).cfg
      val cleo = minOf2(spark, sql, chosen)
      val changed = chosen.join == "hash" || chosen.partitions != DefaultPartitions
      QueryOutcome(q.name, chosen, dflt, cleo, changed, verified = false)
    }

    // Correctness: every changed plan must return the same rows as DuckDB on
    // identical (small) input, under the same CLEO configuration it was timed
    // with.
    val smallTables = TpchLite.register(spark, oracleSf)
    timed.map { o =>
      if (!o.changed) o
      else {
        val q = TpchLite.queries.find(_.name == o.query).get
        val sql = q.sql(evalParam)
        CleoCatalyst.enable(spark)
        CleoCatalyst.withConfig(spark, o.chosen) {
          Oracle.assertEquivalent(spark.sql(sql), sql, q.tables.map(t => t -> smallTables(t)): _*)
        }
        o.copy(verified = true)
      }
    }
  }

  def table(outcomes: Seq[QueryOutcome]): TableResult = {
    val rows = outcomes.map { o =>
      val imp = 100.0 * (o.defaultSecs - o.cleoSecs) / o.defaultSecs
      Seq(o.query, s"${o.chosen.join}/P=${o.chosen.partitions}",
        f"${o.defaultSecs}%.2f s", f"${o.cleoSecs}%.2f s", f"$imp%.1f%%",
        if (o.changed) "yes" else "no",
        if (!o.changed) "n/a" else if (o.verified) "ok" else "FAIL")
    }
    val changed = outcomes.filter(_.changed)
    val improved = changed.count(o => o.cleoSecs < o.defaultSecs)
    TableResult("§6.6.2 — TPC-H-lite on real Spark (CLEO retrofit via Catalyst)",
      Seq("Query", "CLEO choice", "default", "CLEO", "latency Δ", "plan changed", "oracle"),
      rows,
      Seq(s"${changed.size}/${outcomes.size} plans changed; ${improved}/${changed.size} changed plans improved.",
        "Paper (TPC-H 1TB on SCOPE): 6/22 plans changed, 4 improved both latency and",
        "CPU, 1 latency only, 1 regressed."))
  }
}
