package repro.scopesim

import org.scalatest.funsuite.AnyFunSuite
import repro.ml.Metrics

class DefaultCostModelSpec extends AnyFunSuite {

  private lazy val cfg = WorkloadGen.cluster(4)
  private lazy val runs = WorkloadGen.genJobs(cfg)
  private lazy val samples = Logs.samples(runs, cfg.gtConfig)

  test("costs are strictly positive") {
    samples.take(2000).foreach { s =>
      assert(s.defaultCost > 0)
    }
  }

  test("default model is badly correlated with actual runtimes (the paper's premise)") {
    // Cluster 4 is the smallest/cleanest cluster; its partition counts span a
    // narrow range so the total-work vs per-partition-latency mismatch
    // decorrelates less than on the bigger clusters (paper: 0.04-0.15; we
    // accept anything clearly below the learned models' 0.7+).
    val corr = Metrics.pearson(samples.map(_.defaultCost), samples.map(_.actual))
    assert(corr < 0.45, s"default model too good: corr=$corr")
  }

  test("default model has hundreds of percent median error") {
    val med = Metrics.medianErrorPct(samples.map(_.defaultCost), samples.map(_.actual))
    assert(med > 100.0 && med < 1000.0, s"median err $med%")
  }

  test("default p95 error is catastrophically large (Figure 1 spread)") {
    val p95 = Metrics.p95ErrorPct(samples.map(_.defaultCost), samples.map(_.actual))
    assert(p95 > 1000.0, s"p95 err $p95%")
  }

  test("stats-based default cost agrees in spirit with the plan-based one") {
    samples.take(500).foreach { s =>
      val v = DefaultCostModel.exclusiveCostFromStats(s.op, s.stats)
      assert(v > 0)
    }
  }

  test("plan-based and stats-based default costs share one formula") {
    // At a leaf the stats' I·L and C·L are exactly the plan's input and
    // output bytes, so both entry points must give the same value.
    val leaves = runs.take(200).flatMap(_.root.allNodes).filter(_.children.isEmpty)
    assert(leaves.nonEmpty)
    leaves.foreach { n =>
      assert(DefaultCostModel.exclusiveCostFromStats(n.op.name, n.stats) == DefaultCostModel.exclusiveCost(n))
    }
  }
}
