package repro.scopesim

/** The four model keys of Section 3–4, computed as 64-bit recursive hashes
  * the way SCOPE annotates operators with signatures (Section 5.1).
  *
  * The recursive keys are carried bottom-up: each [[Phys]] node computes its
  * [[Signatures.Carried]] once, from its children's, so a lookup costs
  * O(children) instead of a walk over the whole subtree.
  */
object Signatures {

  /** Operator-subgraph: root physical operator + its logical properties
    * (the content hash carries predicates/keys, like SCOPE's signature mixes
    * "hash of operator's logical properties") + entire descendant physical
    * plan + leaf input templates. Strictest key, highest accuracy, lowest
    * coverage.
    */
  def subgraph(n: Phys): Long = n.carried.subgraph

  /** Operator-subgraphApprox: root physical operator + inputs + frequency of
    * each *logical* operator underneath, ignoring order (Section 4.2).
    */
  def approx(n: Phys): Long = n.carried.approx

  /** Operator-input: root physical operator + normalized input templates. */
  def inputSig(n: Phys): Long = n.carried.input

  /** Operator: one model per physical operator name — full coverage, least context. */
  def operator(opName: String): Long = Determ.hashStr("op:" + opName)

  // Sort/Exchange are property enforcers chosen by the optimizer, not part
  // of the job's logical shape — excluding them lets the approx key merge
  // different physical realizations of the same logical subexpression.
  private def isEnforcer(op: PhysOp): Boolean = op == PhysOp.Sort || op == PhysOp.Exchange

  private def addCounts(a: Map[String, Int], b: Map[String, Int]): Map[String, Int] =
    b.foldLeft(a) { case (m, (k, v)) => m.updated(k, m.getOrElse(k, 0) + v) }

  /** One node's signatures plus the logical-operator counts its parent's
    * approx key is built from.
    */
  final class Carried private[scopesim] (n: Phys) {
    private val nameHash = Determ.hashStr(n.op.name)

    val subgraph: Long = n.children.foldLeft(Determ.mix2(Determ.mix2(nameHash, n.contentHash), n.inHash)) {
      (acc, c) => Determ.mix2(acc, c.carried.subgraph)
    }

    val input: Long = Determ.mix2(Determ.hashStr("opin:" + n.op.name), n.inHash)

    /** Frequency of each logical operator strictly below this node. */
    private val below: Map[String, Int] =
      n.children.foldLeft(Map.empty[String, Int])((acc, c) => addCounts(acc, c.carried.logical))

    /** The same, this node included: what its parent's counts are summed from. */
    private val logical: Map[String, Int] =
      if (isEnforcer(n.op)) below else addCounts(below, Map(n.op.logical -> 1))

    val approx: Long = {
      val freqHash = below.toSeq.sorted.foldLeft(0L) { case (acc, (k, v)) =>
        Determ.mix2(acc, Determ.mix2(Determ.hashStr(k), v.toLong))
      }
      Determ.mix2(Determ.mix2(nameHash, n.inHash), freqHash)
    }
  }
}
