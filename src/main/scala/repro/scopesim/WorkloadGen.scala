package repro.scopesim

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Configuration of one simulated production cluster (Figure 9/10 analog):
  * template population, workload scale, job shape, ad-hoc fraction, and the
  * noise levels that differentiate per-cluster accuracy in Table 8.
  */
final case class ClusterConfig(
    id: Int,
    nTemplates: Int,
    nInputs: Int,
    avgJoins: Double,
    maxInstPerDay: Int,
    /** Fraction of templates that recur too rarely to earn subgraph models. */
    rareFrac: Double,
    adhocFrac: Double,
    noiseSigma: Double,
    estSigma: Double,
    biasSigma: Double,
    hiddenSigma: Double,
    seed: Long,
) {
  def gtConfig: GroundTruth.Config =
    GroundTruth.Config(noiseSigma = noiseSigma, hiddenSigma = hiddenSigma, seed = seed ^ 0x6EADL)
}

/** One executed job instance: the physical plan the engine ran, its day,
  * and the template it instantiates (recurring, or the ad-hoc job's own).
  */
final case class JobRun(
    jobId: Long,
    day: Int,
    template: JobTemplate,
    param: Double,
    root: Phys,
) {
  def cluster: Int = template.cluster
  def adhoc: Boolean = template.adhoc
  def templateId: Long = template.id
  def instanceSeed: Long = Determ.mix2(0xFACEL, jobId)
}

/** Generates the recurring + ad-hoc workload of Section 2.2/6: job templates
  * with shared subexpressions, daily instances with drifting inputs and
  * parameters, and single-use ad-hoc jobs that may still borrow common
  * subexpression prefixes from the recurring population.
  */
object WorkloadGen {

  /** The four production clusters; scaled-down volumes, paper-shaped mix.
    * Cluster 1 has the biggest jobs (≈50 operators in the paper), cluster 4
    * the smallest (≈30) and the cleanest environment (best learned accuracy
    * in Table 8); cluster 2 is the noisiest (worst learned accuracy).
    */
  val clusters: Seq[ClusterConfig] = Seq(
    ClusterConfig(1, nTemplates = 260, nInputs = 40, avgJoins = 3.2, maxInstPerDay = 12,
      rareFrac = 0.68, adhocFrac = 0.12, noiseSigma = 0.12, estSigma = 0.25, biasSigma = 0.5,
      hiddenSigma = 0.45, seed = 101L),
    ClusterConfig(2, nTemplates = 160, nInputs = 26, avgJoins = 2.6, maxInstPerDay = 10,
      rareFrac = 0.66, adhocFrac = 0.08, noiseSigma = 0.20, estSigma = 0.32, biasSigma = 0.6,
      hiddenSigma = 0.55, seed = 202L),
    ClusterConfig(3, nTemplates = 140, nInputs = 24, avgJoins = 2.4, maxInstPerDay = 10,
      rareFrac = 0.62, adhocFrac = 0.15, noiseSigma = 0.15, estSigma = 0.28, biasSigma = 0.5,
      hiddenSigma = 0.45, seed = 303L),
    ClusterConfig(4, nTemplates = 90, nInputs = 18, avgJoins = 1.8, maxInstPerDay = 9,
      rareFrac = 0.60, adhocFrac = 0.18, noiseSigma = 0.10, estSigma = 0.22, biasSigma = 0.4,
      hiddenSigma = 0.52, seed = 404L),
  )

  def cluster(id: Int): ClusterConfig = clusters.find(_.id == id).get

  // ---------------------------------------------------------------- inputs

  private def inputName(cfg: ClusterConfig, idx: Int): String = s"in_c${cfg.id}_$idx"

  private def inputBaseRows(input: String): Double =
    math.pow(10.0, 5.5 + 2.5 * Determ.uniform(Determ.hashStr(input)))

  private def inputRowLen(input: String): Double =
    40.0 + 360.0 * Determ.uniform(Determ.mix2(Determ.hashStr(input), 7L))

  /** Daily drift of a recurring input's size (Figure 2 analog). */
  private def dayFactor(input: String, day: Int): Double =
    (1.0 + 0.05 * day) * math.exp(0.10 * Determ.gauss(Determ.mix2(Determ.hashStr(input), day * 31L)))

  // ------------------------------------------------------------- templates

  /** Builds a fresh logical template; `borrowFrom` supplies an existing
    * subexpression to clone (common subexpressions across jobs, Section 3.1).
    */
  private def buildLogical(
      rng: Random, cfg: ClusterConfig, borrowFrom: Option[LogicalNode]): LogicalNode = {
    val ids = Iterator.from(0)

    def pickInput(): String = {
      val idx = (cfg.nInputs * math.pow(rng.nextDouble(), 2.0)).toInt.min(cfg.nInputs - 1)
      inputName(cfg, idx)
    }
    def key(): String = "k" + rng.nextInt(8)

    def reId(n: LogicalNode): LogicalNode =
      LogicalNode(ids.next(), n.op, n.children.map(reId))

    def leafChain(): LogicalNode = {
      var n: LogicalNode = LogicalNode(ids.next(), LogicalOp.Get(pickInput()), Vector.empty)
      if (rng.nextDouble() < 0.80)
        n = LogicalNode(ids.next(), LogicalOp.Select(0.05 + 0.75 * rng.nextDouble()), Vector(n))
      if (rng.nextDouble() < 0.35)
        n = LogicalNode(ids.next(), LogicalOp.Project, Vector(n))
      if (rng.nextDouble() < 0.15)
        n = LogicalNode(ids.next(), LogicalOp.Process(1.0), Vector(n))
      n
    }

    val nJoins = math.max(0, math.min(6, (cfg.avgJoins + rng.nextGaussian() * 1.2).round.toInt))
    val subtrees = ArrayBuffer.fill(nJoins + 1)(leafChain())
    borrowFrom.foreach(b => subtrees(0) = reId(b))

    var lastKey = ""
    while (subtrees.length > 1) {
      val i = rng.nextInt(subtrees.length)
      val a = subtrees.remove(i)
      val j = rng.nextInt(subtrees.length)
      val b = subtrees.remove(j)
      lastKey = key()
      subtrees += LogicalNode(ids.next(),
        LogicalOp.Join(lastKey, 0.1 + 1.2 * rng.nextDouble()), Vector(a, b))
    }
    var root = subtrees.head
    if (rng.nextDouble() < 0.6) {
      val gKey = if (lastKey.nonEmpty && rng.nextDouble() < 0.5) lastKey else key()
      root = LogicalNode(ids.next(),
        LogicalOp.GroupBy(gKey, math.pow(10.0, -3.0 + 2.3 * rng.nextDouble())), Vector(root))
    }
    if (rng.nextDouble() < 0.3)
      root = LogicalNode(ids.next(), LogicalOp.Select(0.2 + 0.6 * rng.nextDouble()), Vector(root))
    LogicalNode(ids.next(), LogicalOp.Output, Vector(root))
  }

  private def choosePhysical(rng: Random, root: LogicalNode): Map[Int, PhysOp] = {
    def walk(n: LogicalNode): Vector[(Int, PhysOp)] = {
      val here = n.op match {
        case _: LogicalOp.Join =>
          Vector(n.id -> (if (rng.nextDouble() < 0.65) PhysOp.HashJoin else PhysOp.MergeJoin))
        case _: LogicalOp.GroupBy =>
          Vector(n.id -> (if (rng.nextDouble() < 0.70) PhysOp.HashAggregate else PhysOp.StreamAggregate))
        case _ => Vector.empty
      }
      here ++ n.children.flatMap(walk)
    }
    walk(root).toMap
  }

  /** All subtrees of a template eligible for borrowing (≥2 nodes, below root). */
  private def borrowableSubtrees(root: LogicalNode): Vector[LogicalNode] = {
    def walk(n: LogicalNode): Vector[LogicalNode] = n.children.flatMap(walk) ++
      (if (n.size >= 2 && n.op.name != "Output") Vector(n) else Vector.empty)
    walk(root)
  }

  /** Draws one template: with probability `borrowP` (and a non-empty `donors`)
    * it clones a subtree of a random donor, then its logical plan, physical
    * choices and parameter center, in that order from `rng`.
    */
  private def template(
      rng: Random, cfg: ClusterConfig, donors: collection.IndexedSeq[JobTemplate], borrowP: Double,
      id: Long, adhoc: Boolean): JobTemplate = {
    val borrow =
      if (donors.nonEmpty && rng.nextDouble() < borrowP) {
        val donor = donors(rng.nextInt(donors.length))
        val subs = borrowableSubtrees(donor.root)
        if (subs.nonEmpty) Some(subs(rng.nextInt(subs.length))) else None
      } else None
    val root = buildLogical(rng, cfg, borrow)
    JobTemplate(id, cfg.id, root, choosePhysical(rng, root),
      paramMean = math.exp(rng.nextGaussian() * 0.3), adhoc = adhoc)
  }

  def genTemplates(cfg: ClusterConfig): Vector[JobTemplate] = {
    val rng = new Random(cfg.seed)
    val out = ArrayBuffer.empty[JobTemplate]
    for (i <- 0 until cfg.nTemplates)
      out += template(rng, cfg, out, 0.35, cfg.id * 1000000L + i, adhoc = false)
    out.toVector
  }

  /** Recurrence frequency of a template: rare templates run 1–2 times a day
    * (too few occurrences in a 2-day training window to earn specialized
    * models — the coverage gap of Section 4.1); common ones run 3–max.
    */
  def instancesPerDay(cfg: ClusterConfig, t: JobTemplate): Int = {
    val u = Determ.uniform(Determ.mix2(t.id, cfg.seed ^ 0x11L))
    val rare = Determ.uniform(Determ.mix2(t.id, cfg.seed ^ 0x22L)) < cfg.rareFrac
    if (rare) 1
    else 3 + (u * u * (cfg.maxInstPerDay - 3)).toInt
  }

  // -------------------------------------------------------------- instances

  /** Computes per-logical-node true/estimated cardinalities for one instance. */
  def instantiate(t: JobTemplate, day: Int, instSeed: Long, cfg: ClusterConfig): (Double, Map[Int, NodeCard]) = {
    val param = t.paramMean * Determ.lognormal(Determ.mix2(instSeed, 0x77L), 0.35)
    val pmFactor = math.max(0.3, math.min(3.0, param))
    val acc = scala.collection.mutable.Map.empty[Int, NodeCard]

    def estNoise(n: LogicalNode): Double = {
      // The +0.12 mean makes estimated selectivities systematically
      // conservative (over-estimates, compounding with depth), as in SCOPE:
      // Figure 1 shows that feeding back true cardinalities *reduces
      // over-estimation* of the default cost model, which requires this
      // bias direction.
      val bias = 0.12 + cfg.biasSigma * Determ.gauss(Determ.mix2(n.contentHash, 0xB1A5L))
      val jitter = cfg.estSigma * Determ.gauss(Determ.mix2(instSeed, n.contentHash))
      math.exp(bias + jitter)
    }

    def walk(n: LogicalNode): NodeCard = {
      val cd: NodeCard = n.op match {
        case LogicalOp.Get(input) =>
          val rows = inputBaseRows(input) * dayFactor(input, day) *
            Determ.lognormal(Determ.mix2(instSeed, Determ.hashStr(input)), 0.15)
          val est = rows * math.exp(0.05 * Determ.gauss(Determ.mix2(instSeed, n.contentHash)))
          NodeCard(rows, est, rows, est, inputRowLen(input), Vector(input))
        case LogicalOp.Select(selBase) =>
          val c = walk(n.children.head)
          val sel = math.max(1e-4, math.min(0.95, selBase * pmFactor))
          val estSel = math.max(1e-5, math.min(1.0, sel * estNoise(n)))
          NodeCard(c.trueOut * sel, c.estOut * estSel, c.trueBase, c.estBase, c.rowLen, c.inputs)
        case LogicalOp.Project =>
          val c = walk(n.children.head)
          c.copy(rowLen = c.rowLen * 0.7)
        case LogicalOp.Process(_) =>
          val c = walk(n.children.head)
          c
        case LogicalOp.Join(_, selBase) =>
          val l = walk(n.children(0)); val r = walk(n.children(1))
          val out = selBase * math.max(l.trueOut, r.trueOut)
          val estOut = selBase * math.max(l.estOut, r.estOut) * estNoise(n)
          NodeCard(math.max(1, out), math.max(1, estOut), l.trueBase + r.trueBase,
            l.estBase + r.estBase, l.rowLen + r.rowLen, l.inputs ++ r.inputs)
        case LogicalOp.GroupBy(_, selBase) =>
          val c = walk(n.children.head)
          NodeCard(math.max(1, c.trueOut * selBase),
            math.max(1, c.estOut * selBase * estNoise(n)),
            c.trueBase, c.estBase, c.rowLen * 0.8, c.inputs)
        case LogicalOp.Output =>
          walk(n.children.head)
      }
      acc(n.id) = cd
      cd
    }
    walk(t.root)
    (param, acc.toMap)
  }

  // ------------------------------------------------------------------ jobs

  /** Generates all job runs of a cluster over three days (recurring + ad-hoc). */
  def genJobs(cfg: ClusterConfig): Vector[JobRun] = {
    val templates = genTemplates(cfg)
    val out = ArrayBuffer.empty[JobRun]
    var jobId = cfg.id * 10000000L
    def run(t: JobTemplate, day: Int, instSeed: Long): Unit = {
      val (param, cards) = instantiate(t, day, instSeed, cfg)
      out += JobRun(jobId, day, t, param, new Realizer(t, cards, param, DefaultPartitioner).realize())
      jobId += 1
    }

    for (day <- 1 to 3) {
      var recurringToday = 0
      for (t <- templates) {
        val n = instancesPerDay(cfg, t)
        recurringToday += n
        for (i <- 0 until n) run(t, day, Determ.mix2(cfg.seed, Determ.mix2(t.id, day * 1000L + i)))
      }
      // ad-hoc: single-use templates, 40% of which borrow a recurring prefix
      val rng = new Random(cfg.seed ^ (day * 7919L))
      val nAdhoc = math.round(recurringToday * cfg.adhocFrac / (1 - cfg.adhocFrac)).toInt
      for (a <- 0 until nAdhoc) {
        val t = template(rng, cfg, templates, 0.4,
          cfg.id * 1000000L + 500000L + day * 10000L + a, adhoc = true)
        run(t, day, Determ.mix2(cfg.seed ^ 0xADL, t.id))
      }
    }
    out.toVector
  }
}
