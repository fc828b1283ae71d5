package repro.scopesim

/** The baseline cost model of Section 2.4 — hand-crafted heuristics over
  * ESTIMATED statistics, in abstract cost units.
  *
  * The default model's pathologies mirror the paper's diagnosis:
  *  - it costs total work and ignores the partition count (degree of
  *    parallelism), while actual latency is per-partition wall clock;
  *  - per-operator constants are hand-tuned and systematically off;
  *  - custom user code (Process) is a black box costed like a cheap scan;
  *  - it consumes estimated cardinalities whose error compounds with depth.
  */
object DefaultCostModel {

  /** Per-operator multiplicative mis-calibration of the hand-crafted model. */
  private def fudge(op: PhysOp): Double = op match {
    case PhysOp.Extract         => 2.0
    case PhysOp.Filter          => 6.0
    case PhysOp.Project         => 4.0
    case PhysOp.HashJoin        => 0.8
    case PhysOp.MergeJoin       => 5.0
    case PhysOp.HashAggregate   => 1.5
    case PhysOp.StreamAggregate => 7.0
    case PhysOp.Sort            => 0.5
    case PhysOp.Exchange        => 8.0
    case PhysOp.UdfProcessor    => 0.05 // UDFs are black boxes: costed like a scan
    case PhysOp.Output          => 3.0
  }

  private def log2(x: Double): Double = math.log(math.max(2.0, x)) / math.log(2.0)

  /** Heuristic total work of `op` over its input/output bytes, input rows
    * and partition count (same shape family as the real engine,
    * deliberately mis-weighted).
    */
  private def work(op: PhysOp, bytesIn: Double, bytesOut: Double, rowsIn: Double, p: Double): Double =
    op match {
      case PhysOp.Sort => 6.0e-9 * bytesIn + 1.0e-6 * rowsIn * log2(rowsIn / p + 2)
      case _           => 1.0e-8 * bytesIn + 5e-9 * bytesOut
    }

  /** Cost-unit saturation: hand-tuned models normalize and cap their work
    * estimates, which under-costs the very largest operators by up to two
    * orders of magnitude (the under-estimation tail of Figure 1).
    */
  private val CostCap = 400.0

  private def cost(op: PhysOp, work: Double): Double = math.min(CostCap, 1.0 + fudge(op) * work * 0.08)

  /** Default model: exclusive cost of one operator, in cost units. */
  def exclusiveCost(n: Phys): Double =
    cost(n.op, work(n.op, n.estBytesIn, n.estOut * n.rowLen, n.estIn, n.partitions))

  /** Default-model cost from bare statistics (estimated input/output cards,
    * row length, partitions) — used when cardinalities are substituted by a
    * learned corrector (CardLearner comparison, Section 6.4). Input bytes are
    * approximated as `I·L`, which is how the comparison treats all variants
    * uniformly.
    */
  def exclusiveCostFromStats(opName: String, s: repro.core.OpStats): Double = {
    val op = PhysOp.all.find(_.name == opName).getOrElse(PhysOp.Project)
    cost(op, work(op, s.i * s.l, s.c * s.l, s.i, s.p))
  }

  def jobCost(root: Phys): Double = root.allNodes.map(exclusiveCost).sum
}
