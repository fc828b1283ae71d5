package repro.scopesim

import repro.core.{Features, OpStats}

/** One logged operator execution — the training/evaluation record CLEO's
  * feedback loop consumes (Section 5.1: signatures, statistics/features,
  * actual exclusive runtime, plus the default model's estimate).
  */
final case class OpSample(
    cluster: Int,
    day: Int,
    jobId: Long,
    templateId: Long,
    adhoc: Boolean,
    op: String,
    sigSub: Long,
    sigApprox: Long,
    sigInput: Long,
    stats: OpStats,
    trueI: Double, // true input cardinality (observed at runtime)
    trueC: Double, // true output cardinality (observed at runtime)
    actual: Double, // exclusive latency, seconds
    defaultCost: Double,
) {
  def features: Array[Double] = Features.vector(stats)
  /** Kept once per sample: every prediction keys the operator family by it. */
  lazy val sigOperator: Long = Signatures.operator(op)
}

/** Extracts per-operator log records from executed jobs. */
object Logs {

  def samples(run: JobRun, cfg: GroundTruth.Config): Vector[OpSample] = {
    def walk(n: Phys): Vector[OpSample] = {
      val here = OpSample(
        cluster = run.cluster, day = run.day, jobId = run.jobId,
        templateId = run.templateId, adhoc = run.adhoc,
        op = n.op.name,
        sigSub = Signatures.subgraph(n),
        sigApprox = Signatures.approx(n),
        sigInput = Signatures.inputSig(n),
        stats = n.stats,
        trueI = n.trueIn, trueC = n.trueOut,
        actual = GroundTruth.exclusiveLatency(n, run.instanceSeed, cfg),
        defaultCost = DefaultCostModel.exclusiveCost(n),
      )
      n.children.flatMap(walk) :+ here
    }
    walk(run.root)
  }

  def samples(runs: Seq[JobRun], cfg: GroundTruth.Config): Vector[OpSample] =
    runs.iterator.flatMap(samples(_, cfg)).toVector
}
