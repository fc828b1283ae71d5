package repro.scopesim

/** The "real system": per-operator exclusive latencies of the simulated
  * SCOPE-like engine. This plays the role of the production clusters'
  * observed runtimes in the paper.
  *
  * Latency structure (per operator instance):
  *
  *   latency = startup + work · hidden · pipe / P · skew + κ·P,   × noise
  *
  *  - `work`: operator-specific total work from TRUE cardinalities/bytes
  *    (the system runs on real data, not on estimates);
  *  - `hidden`: a lognormal multiplier content-addressed by the logical
  *    subexpression — stands in for custom user code, UDFs, and data
  *    idiosyncrasies that no hand-crafted model sees, but that a model
  *    specialized to the subexpression absorbs into its weights;
  *  - `pipe`: pipelining context — running over a blocking Sort differs from
  *    running over a streaming Filter (Section 3.1);
  *  - `skew`/`κ·P`: partition skew and per-partition scheduling overhead —
  *    together they produce the U-shaped latency-vs-partitions curve that
  *    makes partition exploration worthwhile (Section 5.2);
  *  - `noise`: multiplicative cloud variance with rare straggler outliers.
  */
object GroundTruth {

  final case class Config(
      noiseSigma: Double = 0.15,
      hiddenSigma: Double = 0.7,
      outlierFrac: Double = 0.02,
      seed: Long = 99,
  )

  /** Per-partition scheduling/coordination overhead (seconds per partition). */
  val PartitionOverhead = 6e-3

  private def log2(x: Double): Double = math.log(math.max(2.0, x)) / math.log(2.0)

  /** Total single-threaded work in seconds, from TRUE stats. */
  def work(n: Phys): Double = {
    val bIn = n.bytesIn
    val bOut = n.trueOut * n.rowLen
    val rowsIn = n.trueIn
    n.op match {
      case PhysOp.Extract         => 1.2e-8 * bIn
      case PhysOp.Filter          => 4.0e-9 * bIn
      case PhysOp.Project         => 3.0e-9 * bIn
      case PhysOp.HashJoin        => 1.1e-8 * bIn + 7e-9 * bOut
      case PhysOp.MergeJoin       => 5.0e-9 * bIn + 4e-9 * bOut
      case PhysOp.HashAggregate   => 9.0e-9 * bIn + 4e-9 * bOut
      case PhysOp.StreamAggregate => 3.5e-9 * bIn
      case PhysOp.Sort            => 6.0e-9 * bIn + 4.0e-7 * rowsIn * log2(rowsIn / n.partitions + 2)
      case PhysOp.Exchange        => 2.2e-8 * bIn
      case PhysOp.UdfProcessor    => 4.0e-8 * bIn
      case PhysOp.Output          => 1.0e-8 * bIn
    }
  }

  /** Pipelining-context multiplier from the operator directly beneath —
    * structured variance that subgraph models see but operator models
    * cannot (their features carry no child context).
    */
  def pipeMul(n: Phys): Double = {
    if (n.children.isEmpty) 1.0
    else n.children.head.op match {
      case PhysOp.Sort                            => 1.50 // blocking child
      case PhysOp.HashAggregate                   => 1.25
      case PhysOp.Exchange                        => 1.15
      case PhysOp.Filter | PhysOp.Project         => 0.75 // pipelined, pre-filtered
      case _                                      => 1.0
    }
  }

  /** The hidden per-subexpression multiplier (content-addressed, stable). */
  def hiddenMul(n: Phys, cfg: Config): Double = {
    val sigma = if (n.op == PhysOp.UdfProcessor) cfg.hiddenSigma * 1.15 else cfg.hiddenSigma
    Determ.lognormal(Determ.mix2(n.contentHash, cfg.seed ^ 0xAAAAL), sigma)
  }

  /** Exclusive wall-clock latency of one operator instance, in seconds.
    *
    * @param instanceSeed varies per job instance — drives skew and noise
    */
  def exclusiveLatency(n: Phys, instanceSeed: Long, cfg: Config): Double = {
    val seed = nodeSeed(n, instanceSeed)
    val startup = 0.3 + 0.2 * Determ.uniform(Determ.mix2(seed, 1))
    val skew = math.exp(math.abs(Determ.gauss(Determ.mix2(seed, 2))) * 0.15)
    val outlier =
      if (Determ.uniform(Determ.mix2(seed, 4)) < cfg.outlierFrac)
        3.0 + 5.0 * Determ.uniform(Determ.mix2(seed, 5))
      else 1.0
    val lat = startup + (hiddenWork(n, cfg) / n.partitions) * skew + PartitionOverhead * n.partitions
    lat * noiseBase(seed, cfg) * outlier
  }

  /** Total processing time (CPU-seconds) of one operator instance — the
    * resource-consumption metric of Section 6.6 (Figure 19b).
    */
  def cpuSeconds(n: Phys, instanceSeed: Long, cfg: Config): Double =
    (hiddenWork(n, cfg) + (0.05 + PartitionOverhead) * n.partitions) *
      noiseBase(nodeSeed(n, instanceSeed), cfg)

  // One operator of one job instance draws its latency and its CPU time
  // from one seed, so the two share its work and its cloud noise.
  private def nodeSeed(n: Phys, instanceSeed: Long): Long =
    Determ.mix2(instanceSeed, Determ.mix2(n.contentHash, n.logicalId.toLong))
  private def noiseBase(nodeSeed: Long, cfg: Config): Double =
    math.exp(Determ.gauss(Determ.mix2(nodeSeed, 3)) * cfg.noiseSigma)
  private def hiddenWork(n: Phys, cfg: Config): Double = work(n) * hiddenMul(n, cfg) * pipeMul(n)

  /** Job-level latency: sum of exclusive operator latencies (costs compose
    * additively, matching how both the default and learned models combine).
    */
  def jobLatency(root: Phys, instanceSeed: Long, cfg: Config): Double =
    root.allNodes.map(exclusiveLatency(_, instanceSeed, cfg)).sum

  def jobCpuSeconds(root: Phys, instanceSeed: Long, cfg: Config): Double =
    root.allNodes.map(cpuSeconds(_, instanceSeed, cfg)).sum
}
