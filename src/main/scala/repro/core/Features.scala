package repro.core

/** Statistics available to the cost models for one operator instance —
  * exactly the inputs the paper's models see (Section 3.3): estimated
  * cardinalities, average row length, partition count, normalized input
  * identity, job parameters, and (for the operator-input/operator models)
  * the logical-operator count CL and operator depth D.
  */
final case class OpStats(
    i: Double,      // input cardinality from children (estimated)
    b: Double,      // base cardinality at the leaves (estimated)
    c: Double,      // output cardinality (estimated)
    l: Double,      // average row length (bytes)
    p: Double,      // partition count
    inHash: Long,   // hash of normalized input template set (IN)
    pm: Double,     // job parameter (PM)
    cl: Int,        // number of logical operators in the subgraph
    depth: Int,     // depth of the physical operator in the subgraph
) {
  def withPartitions(newP: Double): OpStats = copy(p = newP)
}

/** Feature vectors for the learned cost models.
  *
  * Basic features follow Table 2; derived features follow Table 3; CL and D
  * are the extra context features of the operator-input model (Section 4.2).
  * Within a specialized model constant features (e.g. IN bits) standardize to
  * zero and are inert, so a single vector layout serves all four families.
  */
object Features {

  val names: Array[String] = Array(
    "I", "B", "C", "L", "P", "PM",
    "IN0", "IN1", "IN2", "IN3",
    "sqrt(I)", "sqrt(B)",
    "L*I", "L*B", "L*log(B)", "L*log(I)", "L*log(C)",
    "B*C", "I*C", "B*log(C)", "I*log(C)", "log(I)*log(C)", "log(B)*log(C)",
    "I/P", "C/P", "I*L/P", "C*L/P", "sqrt(I)/P", "sqrt(C)/P", "log(I)/P",
    "CL", "D",
  )

  val dim: Int = names.length

  private def lg(x: Double): Double = math.log1p(math.max(0.0, x))

  def vector(s: OpStats): Array[Double] = {
    val li = lg(s.i); val lb = lg(s.b); val lc = lg(s.c)
    val p = math.max(1.0, s.p)
    Array(
      s.i, s.b, s.c, s.l, p, s.pm,
      (s.inHash & 1L).toDouble, ((s.inHash >> 1) & 1L).toDouble,
      ((s.inHash >> 2) & 1L).toDouble, ((s.inHash >> 3) & 1L).toDouble,
      math.sqrt(s.i), math.sqrt(s.b),
      s.l * s.i, s.l * s.b, s.l * lb, s.l * li, s.l * lc,
      s.b * s.c, s.i * s.c, s.b * lc, s.i * lc, li * lc, lb * lc,
      s.i / p, s.c / p, s.i * s.l / p, s.c * s.l / p,
      math.sqrt(s.i) / p, math.sqrt(s.c) / p, li / p,
      s.cl.toDouble, s.depth.toDouble,
    )
  }
}
