package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.{Oracle, SynthData}
import repro.sparkint.{CleoCatalyst, CleoJoinHintRule, TpchLite}
import repro.sparkint.CleoCatalyst.Config

/** `spark_tpch`: the Section 6.6.2 retrofit on TPC-H-lite with local Spark.
  * CLEO fits its per-query partition models from a grid of timed runs
  * (`decide`), every query then runs at Spark's default and at CLEO's
  * choice, and the DuckDB oracle checks CLEO's plans on a small copy of
  * the data, alternating between the queries until the run's seconds are
  * spent (at least one check of each). Spark and DuckDB do the work; CLEO's
  * own code costs little.
  *
  * The queries and their parameters are fixed; the seed draws the tables.
  * task_s is the median of three `decide` calls; op_ms_p50 is the median
  * over the queries of each one's median oracle check.
  */
object SparkTpch {

  val DefaultPartitions = 64
  val PGrid = Seq(4, 16, 64)
  /** Two of the six TPC-H-lite queries, both joins over lineitem: a run with
    * all six and an oracle check of every changed plan took 145 s on 4
    * cores, too long to repeat over many seeds.
    */
  val Queries: Seq[TpchLite.Query] = TpchLite.queries.filter(q => Set("Q3", "Q12")(q.name))
  /** Timed `decide` calls in a run; task_s is their median, so the first
    * call's extra cost (compiling Spark's generated code) does not count.
    */
  val DecideCalls = 3
  /** Query parameters: one trains `decide`, the other is evaluated and checked. */
  val TrainParam = 5
  val EvalParam = 7

  /** One executor thread: at SF 0.05 a second one made `decide` slower, not
    * faster (median over five seeds 9.2 s with two threads, 6.4 s with one),
    * since the tasks are small and the threads compete with the JIT, the GC
    * and DuckDB.
    */
  def session(localDir: String): SparkSession = {
    val s = SparkSession.builder()
      .master("local[1]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", localDir + "/warehouse")
      .config("spark.sql.shuffle.partitions", DefaultPartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** The steps of `TpchLite.register` (cache, materialize, temp view) over
    * tables drawn with the benchmark seed; `TpchLite.register` itself always
    * draws the same tables.
    */
  def register(spark: SparkSession, sf: Double, seed: Long): Map[String, DataFrame] = {
    val base = seed * 32
    val tables = Map(
      "lineitem" -> SynthData.lineitem(spark, sf, base),
      "orders"   -> SynthData.orders(spark, sf, base + 10),
      "customer" -> SynthData.customer(spark, sf, base + 14),
      "part"     -> SynthData.part(spark, sf, base + 17),
    )
    tables.foreach { case (name, df) =>
      val cached = df.cache()
      cached.count()
      cached.createOrReplaceTempView(name)
    }
    tables
  }

  def run(o: Opts, tr: Tracer, r: Report): Unit = {
    val sf = if (o.tiny) 0.002 else 0.05
    val oracleSf = if (o.tiny) 0.0005 else 0.001

    val localDir = o.outDir.resolve("spark-local").toAbsolutePath.toString
    val (spark, sessionMs) = Stats.timeMs(tr.span("sparkint.session_start")(session(localDir)))
    try {
      var tables = Map.empty[String, DataFrame]
      val registerMs = (1 to 2).map { _ =>
        tables.values.foreach(_.unpersist(blocking = true))
        val (t, ms) = Stats.timeMs(tr.span("sparkint.register")(register(spark, sf, o.seed)))
        tables = t; ms
      }
      r.metric("setup_s", (sessionMs + Stats.median(registerMs)) / 1e3, "s")

      val t0 = System.nanoTime()
      var decisions = Seq.empty[CleoCatalyst.Decision]
      val decideMs = (1 to DecideCalls).map(i => Stats.timeMs(r.op(s"decide $i") {
        val (ds, fits) = tr.span("sparkint.decide")(
          CleoCatalyst.decide(spark, Queries, params = Seq(TrainParam), pGrid = PGrid))
        decisions = ds
        if (ds.size != Queries.size) Some(s"${ds.size} decisions for ${Queries.size} queries")
        else if (ds.exists(d => d.predicted.isNaN || d.cfg.partitions < 1)) Some(s"bad decision in $ds")
        else if (fits.size != 2 * Queries.size) Some(s"only ${fits.size} partition models fit")
        else None
      })._2)
      require(decisions.nonEmpty, "decide failed")
      val chosen = decisions.map(d => d.query -> d.cfg).toMap

      def timedRun(q: TpchLite.Query, cfg: Config, span: String): Double = {
        var secs = Double.NaN
        r.op(s"${q.name} at ${cfg.join}/${cfg.partitions}") {
          secs = tr.span(span)(CleoCatalyst.runOnce(spark, q.sql(EvalParam), cfg))._1
          if (secs.isNaN || secs <= 0) Some(s"bad wall time $secs") else None
        }
        secs
      }
      val dflt = Queries.map(q => timedRun(q, Config("default", DefaultPartitions), "sparkint.run_default"))
      val cleo = Queries.map(q => timedRun(q, chosen(q.name), "sparkint.run_cleo"))
      val changed = Queries.filter(q =>
        chosen(q.name).join == "hash" || chosen(q.name).partitions != DefaultPartitions)

      // Oracle: the queries in turn on the small copy, each under CLEO's
      // configuration, in whole rounds until the run's seconds are spent.
      // op_ms_p50 is the median over queries of each query's median check,
      // so the number of rounds does not change which query it reflects.
      tables.values.foreach(_.unpersist(blocking = true))
      val small = tr.span("oracle.register_small")(register(spark, oracleSf, o.seed))
      val checkMs = scala.collection.mutable.ArrayBuffer.empty[Double]
      while (checkMs.size < Queries.size || checkMs.size % Queries.size != 0 ||
             (System.nanoTime() - t0) / 1e9 < o.seconds) {
        val q = Queries(checkMs.size % Queries.size)
        val cfg = chosen(q.name)
        val sql = q.sql(EvalParam)
        val duckSql = if (o.fault && checkMs.isEmpty) q.sql(EvalParam + 7) else sql
        val prevParts = spark.conf.get("spark.sql.shuffle.partitions")
        try {
          spark.conf.set("spark.sql.shuffle.partitions", cfg.partitions.toString)
          CleoCatalyst.enable(spark)
          CleoJoinHintRule.hint = Some(cfg.strategyHint)
          if (tr.enabled) tr.span("oracle.spark_collect")(spark.sql(sql).collect())
          checkMs += Stats.timeMs(r.op(s"oracle ${q.name} at ${cfg.join}/${cfg.partitions}") {
            tr.span("oracle.check")(Oracle.assertEquivalent(spark.sql(sql), duckSql,
              q.tables.map(t => t -> small(t)): _*))
            None
          })._2
        } finally {
          CleoJoinHintRule.hint = None
          spark.conf.set("spark.sql.shuffle.partitions", prevParts)
        }
      }

      r.metric(if (tr.enabled) "trace.task_s" else "task_s", Stats.median(decideMs) / 1e3, "s")
      val perQuery = Queries.indices.map(i => Stats.median(checkMs.indices.collect {
        case k if k % Queries.size == i => checkMs(k)
      }))
      r.metric("op_ms_p50", Stats.median(perQuery), "ms")
      r.metric("sparkint.tpch_decide_s", Stats.median(decideMs) / 1e3, "s")
      r.metric("sparkint.run_default_s", dflt.sum, "s")
      r.metric("sparkint.run_cleo_s", cleo.sum, "s")
      r.metric("sparkint.plans_changed", changed.size.toDouble, "count")
      r.metric("sparkint.training_runs", (Queries.size * 2 * PGrid.size).toDouble, "count")
      r.metric("sparkint.register_s", Stats.median(registerMs) / 1e3, "s")
      r.metric("sparkint.session_start_s", sessionMs / 1e3, "s")
      r.metric("oracle.check_s", Stats.median(perQuery) / 1e3, "s")
      r.metric("oracle.checks", checkMs.size.toDouble, "count")
      if (tr.enabled) {
        val collect = Stats.median(tr.durations("oracle.spark_collect"))
        r.metric("oracle.spark_collect_s", collect / 1e3, "s")
        r.metric("oracle.duckdb_load_query_s", (Stats.median(tr.durations("oracle.check")) - collect) / 1e3, "s")
      }
      r.info("choices") = Queries.map(q => s"${q.name}:${chosen(q.name).join}/${chosen(q.name).partitions}").mkString(" ")
      r.info("params") = s"train $TrainParam, eval $EvalParam"
      r.info("oracle_checks") = checkMs.size.toString
    } finally spark.stop()
  }
}
