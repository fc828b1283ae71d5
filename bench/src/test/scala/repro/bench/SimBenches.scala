package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments._

/** Shared helpers for the simulator bench suites: every bench prints its
  * table (EXPERIMENTS.md records the numbers) and asserts the paper's *shape*,
  * not its absolute numbers. These suites start no SparkSession.
  */
trait BenchSpec extends AnyFunSuite {
  /** Parses a measured cell like "14.2%" / "0.92" / "1.2 MB" back to a double. */
  def num(cell: String): Double =
    cell.replaceAll("[^0-9.eE+-]", "").toDouble
}

/** Table 1 — elastic net loss functions (paper: MSLE 14% ≪ MedAE 246%). */
class Table1Bench extends BenchSpec {
  test("Table 1: MSLE is the best loss") {
    val t = Tables.table1()
    println(t.render)
    val err = t.rows.map(r => r(0) -> num(r(1))).toMap
    assert(err("Mean Squared-Log Error") <= err.values.min + 1e-9)
    // The robust losses must not beat the squared losses; the paper's
    // catastrophic MedAE number (246%) additionally required heterogeneous
    // per-model targets its production groups had — our within-template
    // targets are homogeneous, so MedAE degrades more mildly (see
    // EXPERIMENTS.md).
    assert(err("Median Absolute Error") >= err("Mean Squared-Log Error"))
    assert(err("Mean Absolute Error") >= err("Mean Squared Error"))
    assert(err("Mean Squared-Log Error") < 40.0)
  }
}

/** Table 4 — ML algorithms on op-subgraph models. */
class Table4Bench extends BenchSpec {
  test("Table 4: all learned algorithms beat the default model; elastic net competitive") {
    val t = Tables.table4()
    println(t.render)
    val byName = t.rows.map(r => r(0) -> (num(r(1)), num(r(2)))).toMap
    val (dCorr, dErr) = byName("Default")
    byName.removed("Default").foreach { case (name, (c, e)) =>
      assert(c > dCorr + 0.2, s"$name corr $c vs default $dCorr")
      assert(e < dErr / 3, s"$name err $e vs default $dErr")
    }
    val (enCorr, enErr) = byName("Elastic net")
    assert(enCorr > 0.6 && enErr < 40.0, "elastic net must be an adequate specialized learner")
  }
}

/** Table 5 — family accuracy/coverage ladder. */
class Table5Bench extends BenchSpec {
  test("Table 5: specialization trades coverage for accuracy; combined gets both") {
    val t = Tables.table5()
    println(t.render)
    val m = t.rows.map(r => r(0) -> (num(r(1)), num(r(2)), num(r(3)))).toMap
    val (_, subErr, subCov) = m("Op-Subgraph")
    val (_, opErr, opCov) = m("Operator")
    val (combCorr, combErr, combCov) = m("Combined")
    val (dfltCorr, dfltErr, _) = m("Default")
    assert(subErr < opErr, "subgraph more accurate than operator")
    assert(subCov < opCov && opCov == 100.0, "subgraph partial, operator full coverage")
    assert(combCov == 100.0 && combErr < opErr, "combined: full coverage, better than operator")
    assert(combCorr > dfltCorr + 0.3 && combErr < dfltErr / 4, "combined crushes default")
    val (_, approxErr, approxCov) = m("Op-SubgraphApprox")
    val (_, inputErr, inputCov) = m("Op-Input")
    assert(subCov <= approxCov + 2 && approxCov <= inputCov + 2, "coverage ladder")
    assert(subErr <= approxErr + 2 && approxErr <= inputErr + 2, "accuracy ladder")
  }
}

/** Table 6 — meta-learner comparison for the combined model. */
class Table6Bench extends BenchSpec {
  test("Table 6: FastTree is the adequate meta-learner and beats plain elastic net") {
    val t = Tables.table6()
    println(t.render)
    val m = t.rows.map(r => r(0) -> (num(r(1)), num(r(2)))).toMap
    val (ftCorr, ftErr) = m("FastTree Regression")
    val (enCorr, enErr) = m("Elastic net")
    val (dCorr, dErr) = m("Default")
    assert(ftErr <= enErr, "FastTree meta must not lose to a linear meta")
    assert(ftCorr > dCorr + 0.3 && ftErr < dErr / 4)
  }
}

/** Table 7 — all-jobs vs ad-hoc breakdown. */
class Table7Bench extends BenchSpec {
  test("Table 7: ad-hoc jobs retain coverage via shared subexpressions and stay predictable") {
    val t = Tables.table7()
    println(t.render)
    val m = t.rows.map(r => r(0) -> r).toMap
    val subAll = num(m("Op-Subgraph")(4))
    val subAdhoc = num(m("Op-Subgraph")(8))
    assert(subAdhoc > 5.0, "ad-hoc subgraph coverage must be non-trivial (shared prefixes)")
    assert(subAdhoc < subAll, "ad-hoc coverage below recurring coverage")
    val combAdhocErr = num(m("Combined")(6))
    val dfltAdhocErr = num(m("Default")(6))
    assert(combAdhocErr < dfltAdhocErr / 3, "combined model works on ad-hoc jobs too")
    val combP95 = num(m("Combined")(3))
    val dfltP95 = num(m("Default")(3))
    assert(combP95 < dfltP95 / 5, "tail error improves by a large factor")
  }
}

/** Table 8 — per-cluster default vs learned. */
class Table8Bench extends BenchSpec {
  test("Table 8: learned dominates default on every cluster") {
    val t = Tables.table8()
    println(t.render)
    t.rows.foreach { r =>
      val (dCorr, dErr, lCorr, lErr, laErr) = (num(r(1)), num(r(2)), num(r(3)), num(r(4)), num(r(6)))
      assert(lCorr > dCorr + 0.25, s"${r(0)}: corr $lCorr vs default $dCorr")
      assert(lErr < dErr / 4, s"${r(0)}: err $lErr vs $dErr")
      assert(laErr < dErr, s"${r(0)}: ad-hoc err $laErr vs default $dErr")
    }
  }
}

/** Figure 9 — workload composition. */
class WorkloadSummaryBench extends BenchSpec {
  test("Figure 9: recurring-dominated workload with mostly-shared subexpressions") {
    val t = Tables.workloadSummary()
    println(t.render)
    t.rows.foreach { r =>
      val jobs = num(r(2)); val recurring = num(r(3))
      val subExpr = num(r(5)); val common = num(r(6))
      assert(recurring / jobs > 0.5, s"${r(0)} ${r(1)}: recurring share")
      assert(common / subExpr > 0.4, s"${r(0)} ${r(1)}: common subexpression share")
    }
  }
}

/** §6.4 — CardLearner comparison. */
class CardLearnerBench extends BenchSpec {
  test("CardLearner: fixing cardinalities alone does not fix cost estimates") {
    val t = Tables.cardLearner()
    println(t.render)
    val m = t.rows.map(r => r(0) -> (num(r(1)), num(r(2)))).toMap
    val (_, dflt) = m("Default")
    val (_, dfltCl) = m("Default + CardLearner")
    val (cleoCorr, cleo) = m("CLEO")
    val (cleoClCorr, cleoCl) = m("CLEO + CardLearner")
    assert(dfltCl > cleo * 3, "corrected cards still far worse than learned costs")
    assert(dfltCl < dflt * 1.3, "card correction should not blow up the default model")
    assert(cleo < dflt / 4 && cleoCl < dflt / 4)
    assert(cleoCorr > 0.5 && cleoClCorr > 0.5)
  }
}

/** §6.5 — partition exploration. */
class PartitionExplorationBench extends BenchSpec {
  test("partition exploration: geometric sampling and the analytical closed form") {
    val t = Tables.partitionExploration()
    println(t.render)
    val sampled = t.rows.dropRight(1).map(r => (num(r(0)), num(r(1)), num(r(2)), num(r(3))))
    val analytical = num(t.rows.last(3))
    // geometric should beat uniform and random in the small-sample regime
    val small = sampled.filter(r => r._1 >= 4 && r._1 <= 20)
    val geomWins = small.count(r => r._4 <= r._2 + 1e-9 && r._4 <= r._3 + 1e-9)
    assert(geomWins >= small.size / 2, "geometric at least ties in most small-sample settings")
    // more samples → monotone-ish improvement for geometric
    assert(sampled.last._4 <= sampled.head._4)
    // analytical is competitive with mid-size sampling at 20x fewer lookups
    val mid = sampled.find(_._1 == 16).get
    assert(analytical <= math.max(mid._4 * 2.5, 25.0), s"analytical $analytical vs geometric@16 ${mid._4}")
  }
}

/** §6.6.1 — plan and resource changes. */
class PlanPerformanceBench extends BenchSpec {
  test("plan changes: most executed changed plans improve latency and CPU time") {
    val t = Tables.planPerformance()
    println(t.render)
    val m = t.rows.map(r => r(0) -> num(r(1))).toMap
    assert(m("plans changed (with partition exploration)") >=
      m("plans changed (no partition exploration)"), "partition exploration adds changes")
    assert(m("plans changed (with partition exploration)") > 10.0)
    assert(m("executed jobs with improved latency") >= 50.0, "majority must improve")
    assert(m("cumulative latency improvement") > 0.0)
    assert(m("cumulative processing-time reduction") > 0.0)
  }
}

/** §6.6.3 — overheads. */
class OverheadBench extends BenchSpec {
  test("training is fast and the model footprint is modest") {
    val t = Tables.overheads()
    println(t.render)
    val m = t.rows.map(r => r(0) -> r(1)).toMap
    assert(num(m("training time")) < 600.0, "cluster-4 training under 10 minutes")
    assert(num(m("model memory (serialized)")) < 600.0, "model footprint under the paper's 600 MB")
    // The paper's optimization time is "orders of a few hundred ms" per job;
    // CLEO costing+partition-optimization must stay well inside that.
    assert(num(m("CLEO optimization time per job")) <= 100.0, "per-job ms budget")
  }
}
