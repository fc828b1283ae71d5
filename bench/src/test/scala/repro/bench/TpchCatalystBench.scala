package repro.bench

import repro.SparkSpec
import repro.experiments.TpchExperiment

/** §6.6.2 — the real-Spark retrofit: learned costs choose join strategy and
  * shuffle partitions through Catalyst; changed plans are oracle-verified.
  */
class TpchCatalystBench extends SparkSpec {
  test("TPC-H-lite: CLEO changes plans via Catalyst, changed plans verified and mostly faster") {
    val sf = sys.env.getOrElse("REPRO_TPCH_SF", "0.05").toDouble
    val outcomes = TpchExperiment.run(spark, sf, oracleSf = 0.004)
    println(TpchExperiment.table(outcomes).render)

    val changed = outcomes.filter(_.changed)
    assert(changed.nonEmpty, "expected at least one plan change from learned costs")
    assert(changed.forall(_.verified), "every changed plan must match the DuckDB oracle")
    val improved = changed.count(o => o.cleoSecs < o.defaultSecs)
    assert(improved * 2 >= changed.size,
      s"at least half the changed plans should improve ($improved/${changed.size})")
    val cum = outcomes.map(_.cleoSecs).sum / outcomes.map(_.defaultSecs).sum
    assert(cum < 1.10, s"cumulative latency should not regress materially (ratio $cum)")
  }
}
