package repro.scopesim

import org.scalatest.funsuite.AnyFunSuite

class WorkloadGenSpec extends AnyFunSuite {

  private lazy val cfg = WorkloadGen.cluster(4)
  private lazy val runs = WorkloadGen.genJobs(cfg)
  private lazy val templates = WorkloadGen.genTemplates(cfg)

  test("four clusters configured with distinct scales") {
    assert(WorkloadGen.clusters.map(_.id) == Seq(1, 2, 3, 4))
    assert(WorkloadGen.cluster(1).nTemplates > WorkloadGen.cluster(4).nTemplates)
  }

  /** Per run: job id, template id, day, node count and root subgraph signature. */
  private def jobsDigest(rs: Seq[JobRun]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    rs.foreach(r => md.update(
      s"${r.jobId},${r.templateId},${r.day},${r.root.allNodes.size},${Signatures.subgraph(r.root)}\n".getBytes("UTF-8")))
    md.digest().take(12).map(b => f"${b & 0xff}%02x").mkString
  }

  test("generated jobs are pinned by digest") {
    assert(runs.size == 867)
    assert(jobsDigest(runs) == "988578492a2e9145c27ce44f")
  }

  test("every run's template id, ad-hoc flag and cluster are its template's") {
    runs.foreach { r =>
      assert(r.templateId == r.template.id && r.adhoc == r.template.adhoc && r.cluster == r.template.cluster)
      assert(r.cluster == cfg.id)
    }
  }

  test("a recurring run carries the generated template with its id") {
    val byId = templates.map(t => t.id -> t).toMap
    runs.filter(!_.adhoc).foreach(r => assert(r.template == byId(r.templateId), s"job ${r.jobId}"))
    assert(runs.filter(_.adhoc).forall(r => !byId.contains(r.templateId)))
  }

  test("generation is reproducible") {
    val again = WorkloadGen.genJobs(cfg)
    assert(again.size == runs.size)
    assert(again.map(_.jobId) == runs.map(_.jobId))
    assert(Signatures.subgraph(again.head.root) == Signatures.subgraph(runs.head.root))
  }

  test("ad-hoc fraction is in the paper's 7-20% band") {
    for (day <- 1 to 3) {
      val dayRuns = runs.filter(_.day == day)
      val frac = dayRuns.count(_.adhoc).toDouble / dayRuns.size
      assert(frac > 0.05 && frac < 0.25, s"day $day adhoc frac $frac")
    }
  }

  test("recurring jobs dominate the workload (>50% as in SCOPE)") {
    assert(runs.count(!_.adhoc).toDouble / runs.size > 0.5)
  }

  test("recurring templates repeat across days, ad-hoc never do") {
    val recDays = runs.filter(!_.adhoc).groupBy(_.templateId).view.mapValues(_.map(_.day).distinct.size)
    assert(recDays.values.forall(_ == 3))
    val adhocCounts = runs.filter(_.adhoc).groupBy(_.templateId).view.mapValues(_.size)
    assert(adhocCounts.values.forall(_ == 1))
  }

  test("input sizes drift across days for the same template") {
    val byTemplate = runs.filter(!_.adhoc).groupBy(_.templateId)
    val t = byTemplate.values.find(_.size >= 3).get
    val sizes = t.groupBy(_.day).view.mapValues(_.head.root.allNodes.filter(_.op == PhysOp.Extract).map(_.trueOut).sum)
    assert(sizes.values.toSeq.distinct.size > 1)
  }

  test("plans contain the expected operator inventory") {
    val ops = runs.flatMap(_.root.allNodes.map(_.op)).toSet
    assert(ops.contains(PhysOp.Extract))
    assert(ops.contains(PhysOp.Exchange))
    assert(ops.contains(PhysOp.HashJoin) || ops.contains(PhysOp.MergeJoin))
    assert(ops.contains(PhysOp.Output))
  }

  test("every plan is rooted at Output with positive cardinalities") {
    runs.take(200).foreach { r =>
      assert(r.root.op == PhysOp.Output)
      r.root.allNodes.foreach { n =>
        assert(n.trueOut > 0 && n.estOut > 0, s"${n.op} cards")
        assert(n.partitions >= 1 && n.partitions <= DefaultPartitioner.MaxPartitions)
      }
    }
  }

  test("estimation error compounds with depth") {
    val all = runs.take(400).flatMap(_.root.allNodes)
    def medianAbsLogErr(ns: Seq[Phys]): Double = {
      val v = ns.map(n => math.abs(math.log(n.estOut / n.trueOut))).sorted
      v(v.size / 2)
    }
    val shallow = all.filter(_.depth <= 2)
    val deep = all.filter(_.depth >= 6)
    assert(deep.nonEmpty && shallow.nonEmpty)
    assert(medianAbsLogErr(deep) > medianAbsLogErr(shallow))
  }

  test("rare templates run once per day, common at least 3 times") {
    val counts = templates.map(t => WorkloadGen.instancesPerDay(cfg, t))
    assert(counts.exists(_ == 1))
    assert(counts.exists(_ >= 3))
    assert(counts.forall(c => c == 1 || c >= 3))
  }

  test("some subexpressions are shared across different templates") {
    val sigsByTemplate = runs.filter(r => !r.adhoc && r.day == 1)
      .groupBy(_.templateId).view.mapValues(_.head.root.allNodes.map(Signatures.subgraph).toSet)
    val sets = sigsByTemplate.values.toSeq
    val shared = (for {
      i <- sets.indices; j <- (i + 1) until sets.size
    } yield (sets(i) intersect sets(j)).nonEmpty).count(identity)
    assert(shared > 0, "expected common subexpressions across templates")
  }

  test("ad-hoc jobs can share subexpressions with recurring jobs") {
    val recurringSigs = runs.filter(r => !r.adhoc).take(300)
      .flatMap(_.root.allNodes.map(Signatures.subgraph)).toSet
    val adhocShared = runs.filter(_.adhoc).take(100)
      .flatMap(_.root.allNodes.map(Signatures.subgraph))
      .count(recurringSigs.contains)
    assert(adhocShared > 0)
  }

  test("job parameter varies per instance around the template mean") {
    val byTemplate = runs.filter(!_.adhoc).groupBy(_.templateId).values.find(_.size >= 4).get
    assert(byTemplate.map(_.param).distinct.size > 1)
  }
}
