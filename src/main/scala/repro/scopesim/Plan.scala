package repro.scopesim

import repro.core.OpStats

/** A node of a recurring job's logical template.
  *
  * `contentHash` is a recursive content-address of the subexpression
  * (operator, parameters, inputs, children) — identical subexpressions
  * appearing in different jobs share it, which is what makes the paper's
  * common-subexpression models transferable across jobs. Hidden runtime
  * multipliers and systematic cardinality-estimation biases are keyed on it.
  */
final case class LogicalNode(id: Int, op: LogicalOp, children: Vector[LogicalNode]) {

  val contentHash: Long = {
    val base = op match {
      case LogicalOp.Get(input)      => Determ.hashStr("Get:" + input)
      case LogicalOp.Select(sel)     => Determ.mix2(Determ.hashStr("Select"), (sel * 1e4).toLong)
      case LogicalOp.Project         => Determ.hashStr("Project")
      case LogicalOp.Join(key, sel)  => Determ.mix2(Determ.hashStr("Join:" + key), (sel * 1e4).toLong)
      case LogicalOp.GroupBy(key, s) => Determ.mix2(Determ.hashStr("GroupBy:" + key), (s * 1e6).toLong)
      case LogicalOp.Process(cf)     => Determ.mix2(Determ.hashStr("Process"), (cf * 1e4).toLong)
      case LogicalOp.Output          => Determ.hashStr("Output")
    }
    children.foldLeft(base)((h, c) => Determ.mix2(h, c.contentHash))
  }

  def inputs: Vector[String] = op match {
    case LogicalOp.Get(input) => Vector(input)
    case _                    => children.flatMap(_.inputs)
  }

  /** Number of logical operators in this subtree (the CL feature). */
  def size: Int = 1 + children.map(_.size).sum
}

/** A recurring job template: a logical plan plus the physical implementation
  * choices its compiled plan uses (fixed across recurring instances, like a
  * SCOPE script), and a parameter distribution center.
  */
final case class JobTemplate(
    id: Long,
    cluster: Int,
    root: LogicalNode,
    physChoices: Map[Int, PhysOp], // Join/GroupBy logical id -> implementation
    paramMean: Double,
    adhoc: Boolean,
)

/** Per-logical-node statistics of one job instance: true and estimated
  * cardinalities (estimates carry systematic per-subexpression bias plus
  * per-instance noise that compounds up the plan), row lengths, base
  * cardinalities, and covered inputs.
  */
final case class NodeCard(
    trueOut: Double,
    estOut: Double,
    trueBase: Double,
    estBase: Double,
    rowLen: Double,
    inputs: Vector[String],
)

/** A physical operator instance in the simulated SCOPE engine. */
final case class Phys(
    op: PhysOp,
    children: Vector[Phys],
    logicalId: Int,
    contentHash: Long, // content-address of the logical subexpression served
    trueOut: Double,
    estOut: Double,
    trueBase: Double,
    estBase: Double,
    rowLen: Double,
    partitions: Int,
    partitionKey: Option[String],
    sortKey: Option[String],
    inputs: Vector[String],
    param: Double,
    cl: Int,
) {
  /** True input cardinality (children's true outputs; self for leaves). */
  def trueIn: Double = if (children.isEmpty) trueOut else children.map(_.trueOut).sum

  /** Estimated input cardinality — what the optimizer sees. */
  def estIn: Double = if (children.isEmpty) estOut else children.map(_.estOut).sum

  /** True bytes entering this operator. */
  def bytesIn: Double =
    if (children.isEmpty) trueOut * rowLen else children.map(c => c.trueOut * c.rowLen).sum

  /** Estimated bytes entering this operator. */
  def estBytesIn: Double =
    if (children.isEmpty) estOut * rowLen else children.map(c => c.estOut * c.rowLen).sum

  /** Physical depth of this operator (leaves have depth 1) — the D feature. */
  val depth: Int = if (children.isEmpty) 1 else 1 + children.map(_.depth).max

  /** Hash of the normalized input template set (IN), computed once per node. */
  lazy val inHash: Long = Determ.hashStr(inputs.sorted.mkString(","))

  /** This node's signatures, built once from its children's (see [[Signatures]]). */
  @transient private[scopesim] lazy val carried: Signatures.Carried = new Signatures.Carried(this)

  /** Statistics handed to the learned models (estimated, like the default model gets). */
  def stats: OpStats = OpStats(
    i = estIn, b = estBase, c = estOut, l = rowLen, p = partitions.toDouble,
    inHash = inHash, pm = param, cl = cl, depth = depth)

  def allNodes: Vector[Phys] = children.flatMap(_.allNodes) :+ this
}
