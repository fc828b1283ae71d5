package repro.planner

import repro.cleo.CleoPredictor
import repro.scopesim._

/** A Cascades-style physical optimizer over the simulated engine's logical
  * plans: enumerates implementation alternatives (hash vs merge join, hash vs
  * stream aggregate — Exchange/Sort operators are derived from required
  * properties by the [[Realizer]]), costs each candidate with a pluggable
  * cost model, and optionally performs the paper's resource-aware partition
  * optimization on every candidate (Section 5.2).
  *
  * This models the `Optimize Inputs` task the paper modifies (Figure 8a):
  * the search space is identical for the default and learned cost models;
  * only the costing (and, for CLEO, the partition counts) differs.
  */
object CascadesLite {

  /** How a candidate physical plan is costed. */
  sealed trait Coster {
    /** The plan kept for a realized candidate (after any partition choice)
      * and its cost.
      */
    def plan(candidate: Phys): (Phys, Double)

    /** The coster one optimize call uses; whatever it memoizes is dropped
      * with the call.
      */
    def forCall(): Coster = this
  }

  /** The engine's default cost model with heuristic partition counts. */
  case object DefaultCoster extends Coster {
    override def plan(candidate: Phys): (Phys, Double) = (candidate, DefaultCostModel.jobCost(candidate))
  }

  /** CLEO: learned combined model for costs, analytical partition
    * optimization from the individual models' θ (Section 5.3).
    */
  final case class CleoCoster(predictor: CleoPredictor, optimizePartitions: Boolean = true) extends Coster {
    override def plan(candidate: Phys): (Phys, Double) = {
      val untuned = predictor.jobCost(candidate)
      if (!optimizePartitions) (candidate, untuned)
      else {
        // Keep the tuned plan only if the learned model agrees it is cheaper —
        // partition optimization must never regress the chosen plan's own cost.
        val tuned = PartitionOptimizer.optimize(candidate, predictor)
        val tunedCost = predictor.jobCost(tuned)
        if (tunedCost <= untuned) (tuned, tunedCost) else (candidate, untuned)
      }
    }

    /** Candidates share most of their subtrees, so one call's operators
      * repeat across them: cost and θ are memoized for the call.
      */
    override def forCall(): Coster = copy(predictor = predictor.memoized())
  }

  /** All logical nodes with an implementation choice (joins and group-bys). */
  def choicePoints(root: LogicalNode): Vector[(Int, Seq[PhysOp])] = {
    def walk(n: LogicalNode): Vector[(Int, Seq[PhysOp])] = {
      val here = n.op match {
        case _: LogicalOp.Join    => Vector(n.id -> Seq(PhysOp.HashJoin, PhysOp.MergeJoin))
        case _: LogicalOp.GroupBy => Vector(n.id -> Seq(PhysOp.HashAggregate, PhysOp.StreamAggregate))
        case _                    => Vector.empty
      }
      here ++ n.children.flatMap(walk)
    }
    walk(root)
  }

  final case class Planned(root: Phys, choices: Map[Int, PhysOp], cost: Double)

  /** Choice points enumerated per job; any beyond keep the template's choice. */
  private val MaxChoicePoints = 7

  /** Optimizes one job instance: enumerates implementation combinations,
    * realizes each (required properties inserting Sort/Exchange), applies the
    * coster's partition tuning, and returns the cheapest candidate.
    */
  def optimize(template: JobTemplate, cards: Map[Int, NodeCard], param: Double, coster: Coster): Planned = {
    val (points, beyond) = choicePoints(template.root).splitAt(MaxChoicePoints)
    val fixed = beyond.map { case (id, alts) => id -> template.physChoices.getOrElse(id, alts.head) }.toMap

    def combos(ps: List[(Int, Seq[PhysOp])]): Seq[Map[Int, PhysOp]] = ps match {
      case Nil => Seq(Map.empty)
      case (id, alts) :: rest =>
        for (m <- combos(rest); a <- alts) yield m.updated(id, a)
    }

    val callCoster = coster.forCall()
    val candidates = combos(points.toList).map { m =>
      val choices = fixed ++ m
      val t = template.copy(physChoices = choices)
      val realized = new Realizer(t, cards, param, DefaultPartitioner).realize()
      val (plan, cost) = callCoster.plan(realized)
      Planned(plan, choices, cost)
    }
    candidates.minBy(_.cost)
  }

  /** Convenience: optimize a recorded job run's template instance. The
    * instance's cards are read off the executed plan, which holds exactly the
    * cards the generator drew (they depend only on template, day and seed).
    */
  def optimizeRun(run: JobRun, template: JobTemplate, cfg: ClusterConfig, coster: Coster): Planned = {
    val cards = run.root.allNodes.map(n => n.logicalId ->
      NodeCard(n.trueOut, n.estOut, n.trueBase, n.estBase, n.rowLen, n.inputs)).toMap
    optimize(template, cards, run.param, coster)
  }

  /** Executes both planners on one job instance and reports the outcome. */
  final case class Comparison(
      defaultPlan: Planned, cleoPlan: Planned,
      defaultLatency: Double, cleoLatency: Double,
      defaultCpu: Double, cleoCpu: Double,
      changed: Boolean)

  def compare(run: JobRun, template: JobTemplate, cfg: ClusterConfig, cleo: CleoPredictor): Comparison = {
    val gt = cfg.gtConfig
    val dflt = optimizeRun(run, template, cfg, DefaultCoster)
    val learned = optimizeRun(run, template, cfg, CleoCoster(cleo))
    // A "plan change" is an operator-implementation change or a substantive
    // (>25%) partition-count move — partition jitter within the band is not a
    // different plan. Equal choices realize the same operators, so their
    // counts pair up one to one.
    val dParts = dflt.root.allNodes.map(_.partitions).sorted
    val lParts = learned.root.allNodes.map(_.partitions).sorted
    val partChanged = dParts.zip(lParts).exists { case (a, b) => math.abs(a - b) > 0.25 * math.max(a, b) }
    val changed = dflt.choices != learned.choices || partChanged
    Comparison(
      dflt, learned,
      GroundTruth.jobLatency(dflt.root, run.instanceSeed, gt),
      GroundTruth.jobLatency(learned.root, run.instanceSeed, gt),
      GroundTruth.jobCpuSeconds(dflt.root, run.instanceSeed, gt),
      GroundTruth.jobCpuSeconds(learned.root, run.instanceSeed, gt),
      changed)
  }
}
