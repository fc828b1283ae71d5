package repro.planner

import repro.core.OpStats
import repro.cleo.CostModel
import repro.scopesim.DefaultPartitioner.MaxPartitions

/** Partition-count exploration strategies of Section 5.3.
  *
  * A "stage" is a set of operators sharing one partition count; the stage
  * cost at P is the sum of each operator's learned cost with its statistics
  * re-evaluated at P. Sampling strategies probe the learned models at chosen
  * counts; the analytical strategy solves `min θP/P + θC·P` in closed form,
  * with each member's θ fitted to probes of its model ([[CostModel.theta]]).
  */
object PartitionExplorer {

  /** One stage member: its learned model and its (P-independent) statistics. */
  final case class StageOp(model: CostModel, stats: OpStats)

  def stageCost(ops: Seq[StageOp], p: Int): Double =
    ops.map(o => o.model.predictCost(repro.core.Features.vector(o.stats.withPartitions(p)))).sum

  /** Exhaustive scan — the reference optimum (1..Pmax model probes). */
  def exhaustive(ops: Seq[StageOp]): Int =
    (1 to MaxPartitions).minBy(stageCost(ops, _))

  def bestOf(ops: Seq[StageOp], candidates: Seq[Int]): Int =
    candidates.distinct.filter(p => p >= 1 && p <= MaxPartitions).minBy(stageCost(ops, _))

  def randomCandidates(k: Int, seed: Long): Seq[Int] = {
    val rng = new scala.util.Random(seed)
    Seq.fill(k)(1 + rng.nextInt(MaxPartitions))
  }

  def uniformCandidates(k: Int): Seq[Int] =
    (1 to k).map(i => math.max(1, math.round(i * MaxPartitions.toDouble / k).toInt))

  /** Geometrically increasing samples: x_{i+1} = ceil(x_i + x_i / s), with
    * x_0 = 1, x_1 = 2 (Section 5.3). `s` is the skipping coefficient.
    */
  def geometricCandidates(s: Double): Seq[Int] = {
    val buf = scala.collection.mutable.ArrayBuffer(1, 2)
    while (buf.last < MaxPartitions) buf += math.min(MaxPartitions, math.ceil(buf.last + buf.last / s).toInt)
    buf.toSeq.distinct
  }

  /** Geometric candidates tuned to yield approximately `k` samples up to MaxPartitions. */
  def geometricCandidatesOfSize(k: Int): Seq[Int] = {
    // ratio r = (1 + 1/s); k steps from 1 to MaxPartitions → r = MaxPartitions^(1/k)
    val r = math.pow(MaxPartitions.toDouble, 1.0 / math.max(1, k))
    val s = 1.0 / math.max(1e-6, r - 1.0)
    geometricCandidates(s)
  }

  /** The closed-form minimum of `θP/P + θC·P` over `[lo, hi]`, rounded to a
    * count (the three sign cases of Section 5.3). With both θ positive the
    * optimum is `sqrt(θP/θC)`, clamped into the bounds; otherwise the curve
    * is monotone or concave and the cheaper bound wins (`lo` on a tie).
    * Inverted bounds (`lo > hi`) are rejected.
    */
  def optimum(thetaP: Double, thetaC: Double, lo: Double, hi: Double): Int = {
    require(lo <= hi, s"inverted partition bounds [$lo, $hi]")
    def cost(p: Double): Double = thetaP / p + thetaC * p
    val best =
      if (thetaP > 0 && thetaC > 0) math.max(lo, math.min(hi, math.sqrt(thetaP / thetaC)))
      else if (cost(hi) < cost(lo)) hi
      else lo
    math.round(best).toInt
  }

  /** A stage's count from its summed θ: the optimum within ±8× of the current
    * (heuristic) count `cur`, or `cur` itself when the fit has no interior
    * optimum — models trained at one operating point cannot be trusted to
    * extrapolate to arbitrary partition counts.
    */
  def withinBand(thetaP: Double, thetaC: Double, cur: Int): Int =
    if (thetaP > 0 && thetaC > 0) optimum(thetaP, thetaC, math.max(1.0, cur / 8.0), math.min(MaxPartitions.toDouble, cur * 8.0))
    else cur

  /** Analytical strategy applied to a stage: probe-fitted θ from each
    * member's model, summed, then [[withinBand]] of the members' current count.
    */
  def analytical(ops: Seq[StageOp]): Int = {
    val thetas = ops.map(o => o.model.theta(o.stats))
    val cur = ops.map(_.stats.p).max.toInt
    math.max(1, math.min(MaxPartitions, withinBand(thetas.map(_._1).sum, thetas.map(_._2).sum, cur)))
  }
}
