package repro.planner

import org.scalatest.funsuite.AnyFunSuite
import repro.cleo.{CleoPredictor, Trainer}
import repro.scopesim._

/** The partition optimizer as three walks keyed by path hashes (θ sums,
  * current counts, rebuild), with its own stage walk: the reference the
  * single decomposition must match exactly.
  */
private object ThreeWalkPartitionOptimizer {

  private final class UnionFind {
    private val parent = scala.collection.mutable.Map.empty[Long, Long]
    def find(x: Long): Long = {
      val p = parent.getOrElse(x, x)
      if (p == x) x else { val r = find(p); parent(x) = r; r }
    }
    def union(a: Long, b: Long): Unit = { val (ra, rb) = (find(a), find(b)); if (ra != rb) parent(ra) = rb }
  }

  private def pathOf(parent: Long, n: Phys, childIdx: Int): Long =
    Determ.mix2(Determ.mix2(parent, childIdx.toLong), n.op.name.hashCode.toLong)

  def stageGroups(root: Phys): Seq[Vector[Phys]] = {
    val uf = new UnionFind
    val members = scala.collection.mutable.Map.empty[Long, Vector[Phys]]
    def collect(n: Phys, myPath: Long): Long = {
      val childSetters = n.children.zipWithIndex.map { case (c, i) => collect(c, pathOf(myPath, c, i)) }
      val setter = if (n.children.isEmpty || n.op == PhysOp.Exchange) myPath else childSetters.head
      if (childSetters.length == 2) uf.union(childSetters(0), childSetters(1))
      members(setter) = members.getOrElse(setter, Vector.empty) :+ n
      setter
    }
    collect(root, 0x5EEDL)
    members.toSeq.groupBy { case (setter, _) => uf.find(setter) }.values.map(_.flatMap(_._2).toVector).toSeq
  }

  def optimize(root: Phys, predictor: CleoPredictor, pMax: Int = DefaultPartitioner.MaxPartitions): Phys = {
    val uf = new UnionFind
    val theta = scala.collection.mutable.Map.empty[Long, (Double, Double)]
    def collect(n: Phys, myPath: Long): Long = {
      val childSetters = n.children.zipWithIndex.map { case (c, i) => collect(c, pathOf(myPath, c, i)) }
      val setter = if (n.children.isEmpty || n.op == PhysOp.Exchange) myPath else childSetters.head
      if (childSetters.length == 2) uf.union(childSetters(0), childSetters(1))
      val (tp, tc) = predictor.theta(n)
      val cur = theta.getOrElse(setter, (0.0, 0.0))
      theta(setter) = (cur._1 + tp, cur._2 + tc)
      setter
    }
    collect(root, 0x5EEDL)
    val currentP = scala.collection.mutable.Map.empty[Long, Int]
    def recordP(n: Phys, myPath: Long): Unit = {
      n.children.zipWithIndex.foreach { case (c, i) => recordP(c, pathOf(myPath, c, i)) }
      if (n.children.isEmpty || n.op == PhysOp.Exchange) currentP(myPath) = n.partitions
    }
    recordP(root, 0x5EEDL)
    val classTheta = scala.collection.mutable.Map.empty[Long, (Double, Double)]
    theta.foreach { case (k, (tp, tc)) =>
      val r = uf.find(k)
      val cur = classTheta.getOrElse(r, (0.0, 0.0))
      classTheta(r) = (cur._1 + tp, cur._2 + tc)
    }
    val classCurrent: Map[Long, Int] = currentP.toSeq.groupBy { case (k, _) => uf.find(k) }
      .view.mapValues(_.map(_._2).max).toMap
    val pStar: Map[Long, Int] = classTheta.map { case (r, (tp, tc)) =>
      val cur = classCurrent.getOrElse(r, 1)
      val chosen =
        if (tp > 0 && tc > 0) {
          val opt = math.sqrt(tp / tc)
          val lo = math.max(1.0, cur / 8.0)
          val hi = math.min(pMax.toDouble, cur * 8.0)
          math.round(math.max(lo, math.min(hi, opt))).toInt
        } else cur
      r -> chosen
    }.toMap
    def rebuild(n: Phys, myPath: Long): Phys = {
      val kids = n.children.zipWithIndex.map { case (c, i) => rebuild(c, pathOf(myPath, c, i)) }
      if (n.children.isEmpty || n.op == PhysOp.Exchange)
        n.copy(children = kids, partitions = pStar.getOrElse(uf.find(myPath), n.partitions))
      else n.copy(children = kids, partitions = kids.head.partitions)
    }
    rebuild(root, 0x5EEDL)
  }
}

class PlannerSpec extends AnyFunSuite {

  private lazy val cfg = WorkloadGen.cluster(4)
  private lazy val runs = WorkloadGen.genJobs(cfg)
  private lazy val samples = Logs.samples(runs, cfg.gtConfig)
  private lazy val predictor = new CleoPredictor(Trainer.deploy(samples))
  private lazy val templates = WorkloadGen.genTemplates(cfg).map(t => t.id -> t).toMap
  private lazy val c1Roots = WorkloadGen.genJobs(WorkloadGen.cluster(1)).filter(r => r.day == 3 && !r.adhoc).map(_.root)

  /** The bounded §6.6.1 job set: the first day-3 instance of each recurring
    * template, in job order, cut to 30 jobs.
    */
  private lazy val planJobs = runs.filter(r => r.day == 3 && !r.adhoc)
    .groupBy(_.templateId).values.map(_.minBy(_.jobId)).toSeq.sortBy(_.jobId).take(30)

  /** Every candidate plan the optimizer realizes for a job, in its order. */
  private def candidates(r: JobRun): Seq[(Map[Int, PhysOp], Phys)] = {
    val t = r.template
    val cards = cardsOf(r)
    val points = CascadesLite.choicePoints(t.root)
    val fixed = points.drop(7).map { case (id, alts) => id -> t.physChoices.getOrElse(id, alts.head) }.toMap
    val combos = points.take(7).foldRight(Seq(Map.empty[Int, PhysOp])) { case ((id, alts), acc) =>
      for (m <- acc; a <- alts) yield m.updated(id, a)
    }
    combos.map { m =>
      val choices = fixed ++ m
      choices -> new Realizer(t.copy(physChoices = choices), cards, r.param, DefaultPartitioner).realize()
    }
  }

  private def cardsOf(r: JobRun): Map[Int, NodeCard] = r.root.allNodes.map(n => n.logicalId ->
    NodeCard(n.trueOut, n.estOut, n.trueBase, n.estBase, n.rowLen, n.inputs)).toMap

  /** CLEO optimization with nothing shared between candidates: each one is
    * realized, partition-tuned and costed from scratch by a plain predictor.
    */
  private def referenceOptimize(r: JobRun, pred: CleoPredictor): CascadesLite.Planned =
    // Same candidate order as the optimizer, so ties resolve alike.
    candidates(r).map { case (choices, realized) =>
      val opt = PartitionOptimizer.optimize(realized, pred)
      val kept = if (pred.jobCost(opt) <= pred.jobCost(realized)) opt else realized
      CascadesLite.Planned(kept, choices, pred.jobCost(kept))
    }.minBy(_.cost)

  /** A plan's stages as a multiset of node multisets (order-free). */
  private def stageMultiset(groups: Seq[Vector[Phys]]): Map[Map[Phys, Int], Int] =
    groups.map(g => g.groupMapReduce(identity)(_ => 1)(_ + _)).groupMapReduce(identity)(_ => 1)(_ + _)

  test("stage groups partition the plan's operators exactly") {
    runs.take(50).foreach { r =>
      val groups = PartitionOptimizer.stageGroups(r.root)
      val all = groups.flatten
      assert(all.size == r.root.allNodes.size, "every operator in exactly one stage")
    }
  }

  test("operators in one stage share one partition count (default plans)") {
    runs.take(50).foreach { r =>
      PartitionOptimizer.stageGroups(r.root).foreach { g =>
        assert(g.map(_.partitions).distinct.size == 1,
          s"stage mixes counts: ${g.map(n => s"${n.op.name}:${n.partitions}")}")
      }
    }
  }

  test("partition optimization keeps the plan structurally valid") {
    val joins = Set[PhysOp](PhysOp.HashJoin, PhysOp.MergeJoin)
    // An operator with its partition count and subtree left out.
    def shape(p: Phys): Vector[Phys] = p.allNodes.map(_.copy(children = Vector.empty, partitions = 0))
    val plans = c1Roots ++ planJobs.flatMap(candidates(_).map(_._2))
    plans.foreach { root =>
      val opt = PartitionOptimizer.optimize(root, predictor)
      val sameOps = shape(opt) == shape(root)
      assert(sameOps, s"operators moved: ${root.allNodes.map(_.op.name)} -> ${opt.allNodes.map(_.op.name)}")
      opt.allNodes.foreach(n => assert(n.partitions >= 1 && n.partitions <= DefaultPartitioner.MaxPartitions))
      opt.allNodes.filter(n => joins(n.op)).foreach { j =>
        j.children.foreach { c =>
          assert(j.partitionKey.isDefined && c.partitionKey == j.partitionKey && c.partitions == j.partitions,
            s"join input ${c.op.name}:${c.partitionKey}:${c.partitions} vs ${j.partitionKey}:${j.partitions}")
        }
      }
      PartitionOptimizer.stageGroups(opt).foreach(g => assert(g.map(_.partitions).distinct.size == 1))
    }
  }

  test("partition optimization changes partition counts for most plans") {
    val rs = runs.filter(r => r.day == 3 && !r.adhoc).take(30)
    val changed = rs.count { r =>
      val opt = PartitionOptimizer.optimize(r.root, predictor)
      opt.allNodes.map(_.partitions).toSet != r.root.allNodes.map(_.partitions).toSet
    }
    assert(changed > rs.size / 3, s"only $changed/${rs.size} plans changed")
  }

  test("choicePoints enumerates joins and group-bys") {
    val t = templates.values.find(t => CascadesLite.choicePoints(t.root).nonEmpty).get
    val points = CascadesLite.choicePoints(t.root)
    points.foreach { case (_, alts) =>
      assert(alts == Seq(PhysOp.HashJoin, PhysOp.MergeJoin) ||
        alts == Seq(PhysOp.HashAggregate, PhysOp.StreamAggregate))
    }
  }

  test("optimizer returns the cheapest enumerated candidate under its own coster") {
    val r = runs.find(r => r.day == 3 && !r.adhoc &&
      CascadesLite.choicePoints(templates(r.templateId).root).nonEmpty).get
    val t = templates(r.templateId)
    val cards = cardsOf(r)
    val planned = CascadesLite.optimize(t, cards, r.param, CascadesLite.DefaultCoster)
    // flipping any single choice must not be cheaper under the same coster
    CascadesLite.choicePoints(t.root).take(3).foreach { case (id, alts) =>
      alts.filterNot(_ == planned.choices(id)).foreach { alt =>
        val t2 = t.copy(physChoices = planned.choices.updated(id, alt))
        val other = new Realizer(t2, cards, r.param, DefaultPartitioner).realize()
        assert(DefaultCostModel.jobCost(other) >= planned.cost - 1e-6)
      }
    }
  }

  test("an ad-hoc run is planned from the template it carries") {
    val adhoc = runs.filter(r => r.day == 3 && r.adhoc).take(10)
    assert(adhoc.nonEmpty)
    adhoc.foreach { r =>
      // The executed plan is the candidate with the template's own choices.
      assert(candidates(r).exists { case (choices, p) => choices == r.template.physChoices && p == r.root },
        s"job ${r.jobId}")
      val planned = CascadesLite.optimizeRun(r, r.template, cfg, CascadesLite.DefaultCoster)
      assert(planned.choices.keySet == r.template.physChoices.keySet, s"job ${r.jobId}")
      assert(planned.cost <= DefaultCostModel.jobCost(r.root), s"job ${r.jobId}")
    }
  }

  test("cleo planner never exceeds default planner under the learned cost model") {
    val rs = runs.filter(r => r.day == 3 && !r.adhoc).take(10)
    rs.foreach { r =>
      val t = templates(r.templateId)
      val dflt = CascadesLite.optimizeRun(r, t, cfg, CascadesLite.DefaultCoster)
      val cleo = CascadesLite.optimizeRun(r, t, cfg, CascadesLite.CleoCoster(predictor))
      assert(predictor.jobCost(cleo.root) <= predictor.jobCost(dflt.root) * 1.001 + 1e-6)
    }
  }

  test("comparison executes both plans on the ground truth") {
    val r = runs.find(r => r.day == 3 && !r.adhoc).get
    val c = CascadesLite.compare(r, templates(r.templateId), cfg, predictor)
    assert(c.defaultLatency > 0 && c.cleoLatency > 0)
    assert(c.defaultCpu > 0 && c.cleoCpu > 0)
  }

  test("cleo plan changes reduce latency on aggregate (the headline claim)") {
    val rs = runs.filter(r => r.day == 3 && !r.adhoc)
      .groupBy(_.templateId).values.map(_.head).take(40).toSeq
    val comps = rs.map(r => CascadesLite.compare(r, templates(r.templateId), cfg, predictor))
    val changed = comps.filter(_.changed)
    assert(changed.nonEmpty, "expected some plan changes")
    val dflt = changed.map(_.defaultLatency).sum
    val cleo = changed.map(_.cleoLatency).sum
    assert(cleo < dflt, s"cumulative latency should improve: cleo=$cleo default=$dflt")
  }

  test("memoized cleo optimization equals the from-scratch reference exactly") {
    planJobs.foreach { r =>
      val got = CascadesLite.optimizeRun(r, templates(r.templateId), cfg, CascadesLite.CleoCoster(predictor))
      val ref = referenceOptimize(r, predictor)
      assert(got.choices == ref.choices, s"job ${r.jobId}")
      assert(got.root.allNodes.map(_.partitions).sorted == ref.root.allNodes.map(_.partitions).sorted, s"job ${r.jobId}")
      assert(got.cost == ref.cost, s"job ${r.jobId}")
      assert(got.root == ref.root, s"job ${r.jobId}")
    }
  }

  test("no memo outlives an optimize call") {
    // B is another day-3 instance of A's template: the same signatures over
    // other cards, so whatever B's call left behind, A's would find.
    val (a, b) = planJobs.iterator.flatMap(a => runs.find(r =>
      r.day == 3 && r.templateId == a.templateId && r.jobId != a.jobId).map(a -> _)).next()
    val coster = CascadesLite.CleoCoster(predictor)
    def plan(r: JobRun) = CascadesLite.optimizeRun(r, templates(r.templateId), cfg, coster)
    val first = plan(a)
    val planB = plan(b)
    val again = plan(a)
    assert(again == first)
    assert(planB == referenceOptimize(b, predictor))
    assert(again == referenceOptimize(a, predictor))
  }

  test("one-walk partition optimization equals the three-walk reference exactly") {
    val plans = c1Roots ++ planJobs.flatMap(candidates(_).map(_._2))
    var moved = 0
    plans.foreach { root =>
      val got = PartitionOptimizer.optimize(root, predictor)
      assert(got == ThreeWalkPartitionOptimizer.optimize(root, predictor))
      if (got.allNodes.map(_.partitions) != root.allNodes.map(_.partitions)) moved += 1
    }
    assert(moved > plans.size / 3, s"the rewrite must actually move partition counts: $moved/${plans.size}")
  }

  test("stage groups equal the three-walk reference's as multisets of nodes") {
    val plans = c1Roots ++ planJobs.map(_.root) ++ c1Roots.take(200).map(PartitionOptimizer.optimize(_, predictor))
    plans.foreach { root =>
      val got = PartitionOptimizer.stageGroups(root)
      assert(stageMultiset(got) == stageMultiset(ThreeWalkPartitionOptimizer.stageGroups(root)))
      // Deterministic order: groups by first post-order appearance, each in post-order.
      val post = root.allNodes
      val idx = got.map(_.map(n => post.indexWhere(_ eq n)))
      assert(idx.forall(g => g == g.sorted) && idx.map(_.head) == idx.map(_.head).sorted)
    }
  }
}
