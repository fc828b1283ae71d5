package repro.experiments

import repro.cleo.{CardLearner, CleoModelSet, Family, Trainer => CleoTrainer}
import repro.core.Features
import repro.ml.{CrossValidation, LogSpaceTrainer, Loss, MLP, Metrics,
  RandomForest, RegressionTree, Trainer => MlTrainer}
import repro.planner._
import repro.scopesim._
import scala.collection.parallel.CollectionConverters._

/** A rendered experiment table: paper reference values sit next to measured
  * ones so EXPERIMENTS.md can be diffed against the paper.
  */
final case class TableResult(
    title: String,
    header: Seq[String],
    rows: Seq[Seq[String]],
    notes: Seq[String] = Nil,
) {
  def render: String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => if (i < r.length) r(i).length else 0).max)
    def line(r: Seq[String]): String =
      r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n") +
      (if (notes.nonEmpty) notes.mkString("\n  note: ", "\n  note: ", "") else "") + "\n"
  }
}

/** Builders for every reproduced table (see DESIGN.md §4 for the index). */
object Tables {

  /** Every simulator table by name, in paper order; `repro.jobs.Run <name>`
    * prints them. §6.6.2 is not here: it needs a SparkSession (`TpchJob`).
    */
  val all: Seq[(String, () => TableResult)] = Seq(
    "table1" -> table1 _,
    "table4" -> table4 _,
    "table5" -> table5 _,
    "table6" -> table6 _,
    "table7" -> table7 _,
    "table8" -> table8 _,
    "workload" -> workloadSummary _,
    "cardlearner" -> cardLearner _,
    "partitions" -> partitionExploration _,
    "plans" -> planPerformance _,
    "overheads" -> overheads _,
    "weights" -> featureWeights _,
  )

  private def f1(v: Double): String = f"$v%.1f"
  private def f2(v: Double): String = f"$v%.2f"
  private def pct(v: Double): String = f"$v%.0f%%"

  private def metrics(pairs: Seq[(Double, Double)]): (Double, Double, Double) = {
    val (p, a) = pairs.unzip
    (Metrics.pearson(p, a), Metrics.medianErrorPct(p, a), Metrics.p95ErrorPct(p, a))
  }

  // --------------------------------------------------------------- CV infra

  /** Deterministically capped subgraph groups of cluster 1 — shared by the
    * Table 1 and Table 4 cross-validation benches.
    */
  private lazy val cvGroups: Seq[Array[OpSample]] = {
    val ss = Workloads.samples(1)
    CleoTrainer.groups(ss, Family.Subgraph, minN = 10)
      .toSeq.sortBy(_._1).take(1000).map(_._2)
  }

  /** Pooled out-of-fold pairs over all groups, in group order; the groups
    * are cross-validated concurrently.
    */
  private def cvPooled(groups: Seq[Array[OpSample]], trainer: MlTrainer): Seq[(Double, Double)] =
    groups.toVector.par.flatMap { arr =>
      CrossValidation.outOfFold(arr.map(_.features), arr.map(_.actual), trainer)
    }.seq

  /** The five learners Tables 4 and 6 compare, in table order. */
  private def learners: Seq[(String, MlTrainer)] = Seq(
    "Neural Network" -> MLP(epochs = 120),
    "Decision Tree" -> RegressionTree(maxDepth = 15),
    "FastTree Regression" -> CleoTrainer.fastTree,
    "Random Forest" -> RandomForest(nTrees = 20, maxDepth = 5),
    "Elastic net" -> CleoTrainer.elasticNet,
  )

  // ---------------------------------------------------------------- Table 1

  /** Table 1: elastic-net median error under the four regression losses. */
  def table1(): TableResult = {
    val net = CleoTrainer.elasticNet
    val losses = Seq[(String, MlTrainer, String)](
      ("Median Absolute Error", net.copy(loss = Loss.MedAE), "246%"),
      ("Mean Absolute Error", net.copy(loss = Loss.MAE), "62%"),
      ("Mean Squared Error", net, "36%"),
      ("Mean Squared-Log Error", LogSpaceTrainer(net), "14%"),
    )
    val rows = losses.map { case (name, trainer, paper) =>
      val (_, med, _) = metrics(cvPooled(cvGroups, trainer))
      Seq(name, pct(med), paper)
    }
    TableResult("Table 1 — loss functions (op-subgraph, 5-fold CV, cluster 1)",
      Seq("Loss Function", "Median Error (measured)", "Median Error (paper)"), rows,
      Seq("MSLE must be best and MedAE worst; absolute values depend on simulator noise."))
  }

  // ---------------------------------------------------------------- Table 4

  /** Table 4: ML algorithms on operator-subgraph models. */
  def table4(): TableResult = {
    val paper = Seq(("0.89", "27%"), ("0.91", "19%"), ("0.90", "20%"), ("0.89", "32%"), ("0.92", "14%"))
    val (dc, dm, _) = metrics(cvGroups.flatten.map(s => (s.defaultCost, s.actual)))
    val defaultRow = Seq("Default", f2(dc), f1(dm) + "%", "0.04", "258%")
    val rows = learners.zip(paper).map { case ((name, t), (pc, pe)) =>
      val (c, m, _) = metrics(cvPooled(cvGroups, LogSpaceTrainer(t)))
      Seq(name, f2(c), f1(m) + "%", pc, pe)
    }
    TableResult("Table 4 — ML algorithms on op-subgraph models (5-fold CV, cluster 1)",
      Seq("Model", "Corr (measured)", "MedErr (measured)", "Corr (paper)", "MedErr (paper)"),
      defaultRow +: rows,
      Seq("All learned models must beat Default by a wide margin; elastic net competitive."))
  }

  // ----------------------------------------------------- Tables 5 / 7 / 8

  final case class FamilyEval(corr: Double, med: Double, p95: Double, coverage: Double)

  /** Accuracy of `predict` on the test rows it covers (where it is defined),
    * and that coverage in percent.
    */
  private def eval(test: Seq[OpSample], predict: OpSample => Option[Double]): FamilyEval = {
    val pairs = test.flatMap(s => predict(s).map(_ -> s.actual))
    if (pairs.isEmpty) FamilyEval(0, 0, 0, 0)
    else {
      val (c, m, p) = metrics(pairs)
      FamilyEval(c, m, p, 100.0 * pairs.size / math.max(1, test.size))
    }
  }

  private def combined(set: CleoModelSet): OpSample => Option[Double] = s => Some(set.predict(s))
  private val default: OpSample => Option[Double] = s => Some(s.defaultCost)

  /** Default, each individual family, and Combined: the models of Tables 5 and 7. */
  private def predictors(set: CleoModelSet): Seq[(String, OpSample => Option[Double])] =
    ("Default" -> default) +: Family.all.map(f => f.name -> ((s: OpSample) => set.predictFamily(f, s))) :+
      ("Combined" -> combined(set))

  /** Table 5: accuracy/coverage per learned model family (cluster 1). */
  def table5(): TableResult = {
    val set = Workloads.trained(1)
    val test = Workloads.testDay(1)
    val paper = Map(
      "Default" -> ("0.04", "258%", "100%"), "Op-Subgraph" -> ("0.92", "14%", "54%"),
      "Op-SubgraphApprox" -> ("0.89", "16%", "76%"), "Op-Input" -> ("0.85", "18%", "83%"),
      "Operator" -> ("0.77", "42%", "100%"), "Combined" -> ("0.84", "19%", "100%"))
    def row(name: String, e: FamilyEval) = {
      val (pc, pm, pv) = paper(name)
      Seq(name, f2(e.corr), f1(e.med) + "%", pct(e.coverage), pc, pm, pv)
    }
    val rows = predictors(set).map { case (name, p) => row(name, eval(test, p)) }
    TableResult("Table 5 — learned model families (train d1-2, test d3, cluster 1)",
      Seq("Model", "Corr", "MedErr", "Coverage", "Corr(paper)", "MedErr(paper)", "Cov(paper)"),
      rows,
      Seq("Accuracy decreases and coverage increases from Op-Subgraph to Operator;",
        "Combined keeps near-specialized accuracy at 100% coverage."))
  }

  /** Table 6: meta-learners for the combined model. */
  def table6(): TableResult = {
    val ss = Workloads.samples(1)
    val indivD1 = CleoTrainer.trainIndividuals(ss.filter(_.day == 1))
    val full = Workloads.trained(1)
    val d2 = ss.filter(_.day == 2)
    val test = Workloads.testDay(1)
    val paper = Seq(("0.79", "31%"), ("0.73", "41%"), ("0.84", "19%"), ("0.80", "28%"), ("0.68", "64%"))
    val (dc, dm, _) = metrics(test.map(s => (s.defaultCost, s.actual)))
    val rows = Seq("Default", f2(dc), f1(dm) + "%", "0.04", "258%") +: learners.zip(paper).map {
      case ((name, t), (pc, pe)) =>
        // The deployed bundle's combined model is this same stacked FastTree fit.
        val deployed =
          if (t == CleoTrainer.fastTree) full
          else full.copy(combined = CleoTrainer.withCombined(indivD1, d2, t).combined)
        val e = eval(test, combined(deployed))
        Seq(name, f2(e.corr), f1(e.med) + "%", pc, pe)
    }
    TableResult("Table 6 — meta-learners for the Combined model (cluster 1)",
      Seq("Model", "Corr", "MedErr", "Corr(paper)", "MedErr(paper)"), rows,
      Seq("FastTree should be the strongest meta-learner; plain elastic net the weakest."))
  }

  /** Table 7: per-family breakdown, all jobs vs ad-hoc only (cluster 1). */
  def table7(): TableResult = {
    val set = Workloads.trained(1)
    val test = Workloads.testDay(1)
    val adhoc = test.filter(_.adhoc)
    val paper = Map(
      "Default" -> Seq("0.12", "182%", "12512%", "100%", "0.09", "204%", "17791%", "100%"),
      "Op-Subgraph" -> Seq("0.86", "9%", "56%", "65%", "0.81", "14%", "57%", "36%"),
      "Op-SubgraphApprox" -> Seq("0.85", "12%", "71%", "82%", "0.80", "16%", "79%", "64%"),
      "Op-Input" -> Seq("0.81", "23%", "90%", "91%", "0.77", "26%", "103%", "79%"),
      "Operator" -> Seq("0.76", "33%", "138%", "100%", "0.73", "42%", "186%", "100%"),
      "Combined" -> Seq("0.79", "21%", "112%", "100%", "0.73", "29%", "134%", "100%"))
    def row(name: String, all: FamilyEval, ah: FamilyEval) =
      Seq(name, f2(all.corr), f1(all.med) + "%", f1(all.p95) + "%", pct(all.coverage),
        f2(ah.corr), f1(ah.med) + "%", f1(ah.p95) + "%", pct(ah.coverage)) ++
        Seq(paper(name).mkString(" / "))
    val rows = predictors(set).map { case (name, p) => row(name, eval(test, p), eval(adhoc, p)) }
    TableResult("Table 7 — breakdown, all jobs vs ad-hoc (cluster 1, test d3)",
      Seq("Model", "Corr", "Med", "95%", "Cov", "Corr(adhoc)", "Med(adhoc)", "95%(adhoc)",
        "Cov(adhoc)", "paper: corr/med/95/cov | adhoc corr/med/95/cov"),
      rows,
      Seq("Ad-hoc coverage of subgraph models stays substantial (shared subexpressions);",
        "operator & combined still far more accurate than Default on ad-hoc jobs."))
  }

  /** Table 8: default vs combined learned model per cluster. */
  def table8(): TableResult = {
    val paper = Map(
      1 -> Seq("0.12", "182%", "0.79", "21%", "0.73", "29%"),
      2 -> Seq("0.08", "256%", "0.77", "33%", "0.75", "40%"),
      3 -> Seq("0.15", "165%", "0.83", "26%", "0.81", "38%"),
      4 -> Seq("0.05", "153%", "0.74", "15%", "0.72", "26%"))
    val rows = (1 to 4).map { c =>
      val set = Workloads.trained(c)
      val test = Workloads.testDay(c)
      val adhoc = test.filter(_.adhoc)
      val d = eval(test, default)
      val l = eval(test, combined(set))
      val la = eval(adhoc, combined(set))
      Seq(s"Cluster $c", f2(d.corr), f1(d.med) + "%", f2(l.corr), f1(l.med) + "%",
        f2(la.corr), f1(la.med) + "%", paper(c).mkString(" / "))
    }
    TableResult("Table 8 — default vs learned per cluster (test d3)",
      Seq("Cluster", "Default corr", "Default med", "Learned corr", "Learned med",
        "Learned corr (adhoc)", "Learned med (adhoc)",
        "paper: dflt corr/med, learned corr/med, adhoc corr/med"),
      rows,
      Seq("Learned must dominate default on every cluster, ad-hoc slightly worse than all."))
  }

  // ------------------------------------------------------------- Section 6.4

  /** CardLearner comparison (Figure 15 headline numbers). */
  def cardLearner(): TableResult = {
    val cluster = 4
    val ss = Workloads.samples(cluster)
    val train = ss.filter(_.day <= 2)
    val test = Workloads.testDay(cluster)
    val cl = CardLearner.train(train)
    val set = Workloads.trained(cluster)
    // CLEO+CardLearner retrains the learned models on the corrected
    // statistics (the corrector changes the feature distribution, so the
    // deployed models must be trained against it).
    val correctedSet = CleoTrainer.deploy(train.map(s => s.copy(stats = cl.correctedStats(s))))

    def statsDefault(s: OpSample) = DefaultCostModel.exclusiveCostFromStats(s.op, s.stats)
    def statsDefaultCl(s: OpSample) = DefaultCostModel.exclusiveCostFromStats(s.op, cl.correctedStats(s))
    def cleo(s: OpSample) = set.predict(s)
    def cleoCl(s: OpSample) = correctedSet.predict(s.copy(stats = cl.correctedStats(s)))

    val variants = Seq(
      ("Default", statsDefault _, "0.04", "236%"),
      ("Default + CardLearner", statsDefaultCl _, "0.01", "211%"),
      ("CLEO", cleo _, "0.84", "18%"),
      ("CLEO + CardLearner", cleoCl _, "0.86", "13%"),
    )
    val rows = variants.map { case (name, f, pc, pe) =>
      val (c, m, _) = metrics(test.map(s => (f(s), s.actual)))
      Seq(name, f2(c), f1(m) + "%", pc, pe)
    }
    TableResult("§6.4 — CardLearner comparison (cluster 4)",
      Seq("Variant", "Corr", "MedErr", "Corr(paper)", "MedErr(paper)"), rows,
      Seq("Fixing cardinalities alone barely moves cost accuracy; learning costs does."))
  }

  // ------------------------------------------------------------- Section 6.5

  /** Partition-exploration accuracy vs efficiency (Figure 17 + 8c numbers). */
  def partitionExploration(): TableResult = {
    val pred = Workloads.predictor(1)
    // Stage instances whose learned cost curve has an interior optimum — a
    // curve that is monotone all the way to a boundary makes every strategy
    // trivially optimal (just probe the endpoint) and says nothing about
    // exploration quality.
    val stages: Seq[Seq[PartitionExplorer.StageOp]] =
      Workloads.runs(1).filter(r => r.day == 3 && !r.adhoc)
        .flatMap(r => PartitionOptimizer.stageGroups(r.root))
        .filter(_.size >= 2)
        .map(_.flatMap(n => pred.individualModel(n).map(m => PartitionExplorer.StageOp(m, n.stats))))
        .filter(_.nonEmpty)
        .filter { s =>
          val opt = PartitionExplorer.exhaustive(s)
          opt > 1 && opt < DefaultPartitioner.MaxPartitions
        }
        .take(200)

    val optima = stages.map(s => PartitionExplorer.stageCost(s, PartitionExplorer.exhaustive(s)))

    def subopt(chosen: Seq[Int]): Double = {
      val errs = stages.zip(chosen).zip(optima).map { case ((s, p), copt) =>
        val c = PartitionExplorer.stageCost(s, p)
        100.0 * math.max(0.0, c - copt) / math.max(1e-9, copt)
      }
      Metrics.percentile(errs, 0.5)
    }

    val ks = Seq(2, 4, 6, 8, 12, 16, 20, 28, 40)
    val rows = ks.map { k =>
      val rand = subopt(stages.zipWithIndex.map { case (s, i) =>
        PartitionExplorer.bestOf(s, PartitionExplorer.randomCandidates(k, seed = 1000 + i)) })
      val unif = subopt(stages.map(s =>
        PartitionExplorer.bestOf(s, PartitionExplorer.uniformCandidates(k))))
      val geom = subopt(stages.map(s =>
        PartitionExplorer.bestOf(s, PartitionExplorer.geometricCandidatesOfSize(k))))
      Seq(k.toString, f1(rand) + "%", f1(unif) + "%", f1(geom) + "%", (5 * 10 * k).toString)
    }
    val analytical = subopt(stages.map(s => PartitionExplorer.analytical(s)))
    val aRow = Seq("analytical", "-", "-", f1(analytical) + "%", (5 * 10).toString)
    TableResult("§6.5 — partition exploration: median cost suboptimality vs samples",
      Seq("#samples", "random", "uniform", "geometric", "model lookups (10-op plan)"),
      rows :+ aRow,
      Seq("Paper: geometric beats uniform/random for 4-20 samples; analytical matches",
        "~15-20 samples at ~20x fewer lookups (50 vs ~1000 for a 10-operator plan)."))
  }

  // ------------------------------------------------------------- Section 6.6.1

  /** Plan/resource changes executed on the simulator (Figure 19 numbers). */
  def planPerformance(): TableResult = {
    val cluster = 4
    val cfg = Workloads.config(cluster)
    val pred = Workloads.predictor(cluster)
    val runs = Workloads.runs(cluster).filter(r => r.day == 3 && !r.adhoc)
      .groupBy(_.templateId).values.map(_.head).toSeq.sortBy(_.jobId).take(120)

    val comps = runs.map(r => CascadesLite.compare(r, r.template, cfg, pred))
    val noPart = runs.map { r =>
      val d = CascadesLite.optimizeRun(r, r.template, cfg, CascadesLite.DefaultCoster)
      val c = CascadesLite.optimizeRun(r, r.template, cfg,
        CascadesLite.CleoCoster(pred, optimizePartitions = false))
      d.choices != c.choices
    }

    val changed = comps.filter(_.changed)
    val opChanged = comps.filter(c => c.defaultPlan.choices != c.cleoPlan.choices)
    val exec = (if (opChanged.size >= 10) opChanged else changed).take(20)
    val improved = exec.count(c => c.cleoLatency < c.defaultLatency)
    val avgImp = 100.0 * exec.map(c => (c.defaultLatency - c.cleoLatency) / c.defaultLatency).sum / exec.size
    val cumImp = 100.0 * (1 - exec.map(_.cleoLatency).sum / exec.map(_.defaultLatency).sum)
    val avgCpu = 100.0 * exec.map(c => (c.defaultCpu - c.cleoCpu) / c.defaultCpu).sum / exec.size
    val cumCpu = 100.0 * (1 - exec.map(_.cleoCpu).sum / exec.map(_.defaultCpu).sum)

    val rows = Seq(
      Seq("plans changed (no partition exploration)",
        pct(100.0 * noPart.count(identity) / runs.size), "22%"),
      Seq("plans changed (with partition exploration)",
        pct(100.0 * changed.size / runs.size), "39%"),
      Seq("executed jobs with improved latency", pct(100.0 * improved / exec.size), "70%"),
      Seq("average latency improvement", f1(avgImp) + "%", "15.35%"),
      Seq("cumulative latency improvement", f1(cumImp) + "%", "21.3%"),
      Seq("average processing-time reduction", f1(avgCpu) + "%", "32.2%"),
      Seq("cumulative processing-time reduction", f1(cumCpu) + "%", "40.4%"),
    )
    TableResult("§6.6.1 — plan & resource changes on the production-like workload",
      Seq("Metric", "measured", "paper"), rows,
      Seq(s"${exec.size} changed-plan jobs executed on the simulated runtime",
        "(paper executed 17 hand-picked jobs with operator changes)."))
  }

  // ------------------------------------------------------------- Figure 9

  /** Workload summary (the Figure 9 table). */
  def workloadSummary(): TableResult = {
    val rows = for (c <- 1 to 4; day <- 1 to 3) yield {
      val rs = Workloads.runs(c).filter(_.day == day)
      val ss = Workloads.samples(c).filter(_.day == day)
      val jobsBySig = ss.groupBy(_.sigSub).view.mapValues(_.map(_.jobId).distinct.size)
      val common = ss.count(s => jobsBySig(s.sigSub) > 1)
      Seq(s"Cluster $c", s"Day $day",
        rs.size.toString, rs.count(!_.adhoc).toString,
        rs.filter(!_.adhoc).map(_.templateId).distinct.size.toString,
        ss.size.toString, common.toString, ss.count(_.adhoc).toString)
    }
    TableResult("Figure 9 — workload composition (scaled-down simulation)",
      Seq("Cluster", "Day", "Jobs", "Recurring", "Templates", "Sub-expr", "Common sub-expr",
        "Ad-hoc sub-expr"),
      rows,
      Seq("Paper totals: 0.5M jobs, 22.4M subexpressions, ~79% common; shape matches at",
        "simulation scale (recurring-dominated, most subexpressions shared)."))
  }

  // ------------------------------------------------------------- Section 6.6.3

  /** Passes over the jobs whose per-job optimization time is the median;
    * one more, untimed, runs first so that the timed ones run compiled code.
    */
  private val OverheadPasses = 5

  /** Training and optimization-time overheads. */
  def overheads(): TableResult = {
    val ss = Workloads.samples(4)
    val t0 = System.nanoTime()
    val set = CleoTrainer.deploy(ss)
    val trainSecs = (System.nanoTime() - t0) / 1e9
    val nModels = Family.all.map(set.familyMap(_).size).sum
    // Java-serialized size of cluster 4's deployed bundle (individual and
    // combined models), as perfbench's cleo.model_mb measures it.
    val memMb = {
      val bytes = new java.io.ByteArrayOutputStream
      val out = new java.io.ObjectOutputStream(bytes)
      try out.writeObject(set) finally out.close()
      bytes.size / 1e6
    }

    val cfgC = Workloads.config(4)
    val pred = Workloads.predictor(4)
    val jobs = Workloads.runs(4).filter(r => r.day == 3 && !r.adhoc).take(30)
    def perJobMs(f: JobRun => Unit): Double = {
      jobs.foreach(f)
      val passes = Seq.fill(OverheadPasses) {
        val t = System.nanoTime(); jobs.foreach(f); (System.nanoTime() - t) / 1e6 / jobs.size
      }
      Metrics.percentile(passes, 0.5)
    }
    val tDef = perJobMs(r => CascadesLite.optimizeRun(r, r.template, cfgC, CascadesLite.DefaultCoster))
    val tCleo = perJobMs(r => CascadesLite.optimizeRun(r, r.template, cfgC, CascadesLite.CleoCoster(pred)))
    val rows = Seq(
      Seq("individual models trained (cluster 4)", nModels.toString, "~23K (800-job cluster)"),
      Seq("training time", f1(trainSecs) + " s", "< 1 h for 800 jobs"),
      Seq("model memory (serialized)", f1(memMb) + " MB", "~600 MB for 25K models"),
      Seq("default optimization time per job", f1(tDef) + " ms", "-"),
      Seq("CLEO optimization time per job", f1(tCleo) + " ms",
        "few hundred ms total optimization"),
    )
    TableResult("§6.6.3 — training and runtime overheads",
      Seq("Metric", "measured", "paper"), rows,
      Seq("The paper reports a 5-10% optimizer-time overhead on SCOPE, where costing is",
        "a small fraction of optimization; our default coster is near-free arithmetic,",
        "so the comparable bound is the absolute per-job CLEO costing time."))
  }

  // ------------------------------------------------------- Figures 5/6 analog

  /** Feature weights (Figure 5 analog, Tables 2–3 as code): each feature's
    * share of the summed |weight| over cluster 1's op-subgraph models.
    */
  def featureWeights(): TableResult = {
    val nets = Workloads.trained(1).familyMap(Family.Subgraph).values.map(_.net).toSeq
    val sums = Array.tabulate(Features.dim)(j => nets.map(m => math.abs(m.weights(j))).sum)
    val total = sums.sum
    val rows = Features.names.zip(sums)
      .sortBy(-_._2)
      .map { case (n, w) => Seq(n, f"${100.0 * w / math.max(1e-12, total)}%.2f%%") }
      .toSeq
    TableResult("Figure 5 analog — aggregate normalized |weight| per feature (op-subgraph)",
      Seq("Feature", "normalized weight"), rows)
  }
}
