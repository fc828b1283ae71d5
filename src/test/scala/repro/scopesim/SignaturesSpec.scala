package repro.scopesim

import org.scalatest.funsuite.AnyFunSuite
import repro.cleo.{CleoPredictor, Trainer}
import repro.planner.PartitionOptimizer

/** The signatures as a from-scratch walk of each node's whole subtree: the
  * reference the bottom-up signatures must match bit for bit.
  */
private object RecursiveSignatures {

  def subgraph(n: Phys): Long = {
    val base = Determ.mix2(
      Determ.mix2(Determ.hashStr(n.op.name), n.contentHash),
      Determ.hashStr(n.inputs.sorted.mkString(",")))
    n.children.foldLeft(base)((h, c) => Determ.mix2(h, subgraph(c)))
  }

  def approx(n: Phys): Long = {
    def isEnforcer(op: PhysOp): Boolean = op == PhysOp.Sort || op == PhysOp.Exchange
    def logicalCounts(m: Phys): Map[String, Int] = {
      val self: Map[String, Int] = if (isEnforcer(m.op)) Map.empty else Map(m.op.logical -> 1)
      m.children.foldLeft(self) { (acc, c) =>
        logicalCounts(c).foldLeft(acc) { case (a, (k, v)) => a.updated(k, a.getOrElse(k, 0) + v) }
      }
    }
    val freq = n.children.foldLeft(Map.empty[String, Int]) { (acc, c) =>
      logicalCounts(c).foldLeft(acc) { case (a, (k, v)) => a.updated(k, a.getOrElse(k, 0) + v) }
    }
    val freqHash = freq.toSeq.sorted.foldLeft(0L) { case (h, (k, v)) =>
      Determ.mix2(h, Determ.mix2(Determ.hashStr(k), v.toLong))
    }
    Determ.mix2(Determ.mix2(Determ.hashStr(n.op.name),
      Determ.hashStr(n.inputs.sorted.mkString(","))), freqHash)
  }

  def inputSig(n: Phys): Long =
    Determ.mix2(Determ.hashStr("opin:" + n.op.name), Determ.hashStr(n.inputs.sorted.mkString(",")))
}

class SignaturesSpec extends AnyFunSuite {

  private lazy val cfg = WorkloadGen.cluster(4)
  private lazy val runs = WorkloadGen.genJobs(cfg)
  private lazy val c1Runs = WorkloadGen.genJobs(WorkloadGen.cluster(1))

  private def assertMatchesReference(roots: Seq[Phys]): Unit = roots.flatMap(_.allNodes).foreach { n =>
    assert(Signatures.subgraph(n) == RecursiveSignatures.subgraph(n))
    assert(Signatures.approx(n) == RecursiveSignatures.approx(n))
    assert(Signatures.inputSig(n) == RecursiveSignatures.inputSig(n))
    assert(n.inHash == Determ.hashStr(n.inputs.sorted.mkString(",")))
  }

  test("subgraph signature is stable across instances of the same template") {
    val byTemplate = runs.filter(!_.adhoc).groupBy(_.templateId).values.find(_.size >= 4).get
    val sigs = byTemplate.map(r => Signatures.subgraph(r.root)).distinct
    assert(sigs.size == 1)
  }

  test("subgraph signature distinguishes different templates") {
    val roots = runs.filter(r => !r.adhoc && r.day == 1)
      .groupBy(_.templateId).values.map(_.head.root).take(50)
    val sigs = roots.map(Signatures.subgraph).toSeq
    assert(sigs.distinct.size > 40, "nearly all templates should have distinct root signatures")
  }

  test("signature hierarchy: subgraph refines approx refines input refines operator") {
    val nodes = runs.take(300).flatMap(_.root.allNodes)
    def countKeys(f: Phys => Long) = nodes.map(f).distinct.size
    val nSub = countKeys(Signatures.subgraph)
    val nApprox = countKeys(Signatures.approx)
    val nInput = countKeys(Signatures.inputSig)
    val nOp = countKeys(n => Signatures.operator(n.op.name))
    assert(nSub >= nApprox && nApprox >= nInput && nInput >= nOp, s"$nSub/$nApprox/$nInput/$nOp")
    assert(nOp <= PhysOp.all.size)
  }

  test("approx signature merges different physical realizations of the same logical subgraph") {
    // same logical template realized with hash vs merge join
    val l = LogicalNode(0, LogicalOp.Get("x"), Vector.empty)
    val r = LogicalNode(1, LogicalOp.Get("y"), Vector.empty)
    val j = LogicalNode(2, LogicalOp.Join("k1", 1.0), Vector(l, r))
    val o = LogicalNode(3, LogicalOp.Output, Vector(j))
    val cards = Map(
      0 -> NodeCard(1e6, 1e6, 1e6, 1e6, 100, Vector("x")),
      1 -> NodeCard(1e6, 1e6, 1e6, 1e6, 100, Vector("y")),
      2 -> NodeCard(1e6, 1e6, 2e6, 2e6, 200, Vector("x", "y")),
      3 -> NodeCard(1e6, 1e6, 2e6, 2e6, 200, Vector("x", "y")))
    def mk(impl: PhysOp) = new Realizer(
      JobTemplate(9L, 1, o, Map(2 -> impl), 1.0, adhoc = false), cards, 1.0, DefaultPartitioner).realize()
    val hash = mk(PhysOp.HashJoin)
    val merge = mk(PhysOp.MergeJoin)
    assert(Signatures.subgraph(hash) != Signatures.subgraph(merge))
    // root ops equal (Output), logical multiset equal, inputs equal -> approx equal
    assert(Signatures.approx(hash) == Signatures.approx(merge))
    assert(Signatures.inputSig(hash) == Signatures.inputSig(merge))
  }

  test("operator signature depends only on the physical operator") {
    val nodes = runs.take(100).flatMap(_.root.allNodes)
    val groups = nodes.groupBy(_.op.name)
    groups.foreach { case (_, ns) =>
      assert(ns.map(n => Signatures.operator(n.op.name)).distinct.size == 1)
    }
    assert(groups.keys.map(Signatures.operator).size == groups.size, "operators must not share a signature")
  }

  test("input signature ignores the subgraph shape but keeps the inputs") {
    val nodes = runs.take(300).flatMap(_.root.allNodes).filter(_.op == PhysOp.Filter)
    val byKey = nodes.groupBy(Signatures.inputSig)
    // filters over the same input set collapse to one key even across templates
    assert(byKey.exists(_._2.map(_.contentHash).distinct.size > 1))
  }

  test("bottom-up signatures equal the recursive walk on every node of cluster 1") {
    assertMatchesReference(c1Runs.map(_.root))
  }

  test("bottom-up signatures equal the recursive walk on partition-optimized plans") {
    // θ needs only individual models; the small cluster's day 1 gives enough.
    val pred = new CleoPredictor(Trainer.trainIndividuals(Logs.samples(runs.filter(_.day == 1), cfg.gtConfig)))
    val roots = c1Runs.filter(r => r.day == 3 && !r.adhoc).take(200).map(_.root)
    val rebuilt = roots.map(PartitionOptimizer.optimize(_, pred))
    assert(rebuilt.zip(roots).count { case (o, r) => o.allNodes.map(_.partitions) != r.allNodes.map(_.partitions) } > 50,
      "the rewrite must actually move partition counts")
    assertMatchesReference(rebuilt)
  }
}
