package perfbench

import repro.cleo.{CleoModelSet, Family, Trainer}
import repro.ml.Metrics
import repro.scopesim._

/** Shared pieces of the two simulator workloads: the fixed cluster, the
  * seeded log runtime, the deployed-model training protocol, quality and
  * coverage on the test day, and the determinism fingerprints.
  */
object Sim {

  /** Cluster 1 (seed 101) cut to the first 1/`share` of its templates: the
    * same template population in every run, so that the work of a run does
    * not change with the benchmark seed. Templates are drawn in sequence, so
    * the cut keeps cluster 1's first templates as they are (130 of 260 for
    * share 2). `tiny` shrinks it further for the smoke test.
    */
  def config(tiny: Boolean, share: Int): ClusterConfig = {
    val c = WorkloadGen.cluster(1)
    if (tiny) c.copy(nTemplates = 40, maxInstPerDay = 3) else c.copy(nTemplates = c.nTemplates / share)
  }

  /** The simulated runtime that writes the logs under the benchmark seed;
    * seed 101 gives cluster 1's own.
    */
  def logRuntime(cfg: ClusterConfig, seed: Long): GroundTruth.Config = cfg.copy(seed = seed).gtConfig

  /** Generations of the workload in set-up. Their median is the set-up
    * time, so the first ones, which run before the JIT has compiled the
    * generator, must stay a minority: with five, retrain's median moved
    * between 21 and 38 ms from run to run.
    */
  val Generations = 15

  /** Generates the workload `Generations` times, which must give the same
    * jobs; returns the jobs and each repetition's ms.
    */
  def generate(cfg: ClusterConfig, tr: Tracer, r: Report): (Vector[JobRun], Seq[Double]) = {
    val timed = (1 to Generations).map(_ => Stats.timeMs(tr.span("scopesim.gen_jobs")(WorkloadGen.genJobs(cfg))))
    val digests = timed.map(t => jobDigest(t._1)).distinct
    r.op("workload generation repeats within the run") {
      if (digests.size == 1) None else Some(s"digests differ: ${digests.mkString(" ")}")
    }
    r.fingerprints("jobs") = digests.head
    (timed.last._1, timed.map(_._2))
  }

  def samples(runs: Seq[JobRun], gt: GroundTruth.Config, tr: Tracer): Vector[OpSample] =
    tr.span("scopesim.logs")(Logs.samples(runs, gt))

  /** The deployed bundle (Section 5.1, stacked): individual models on day 1,
    * the combined model trained on day 2 against them, then individual
    * models retrained on days 1-2 under the same combined model.
    */
  def train(ss: Vector[OpSample], tr: Tracer): CleoModelSet = {
    val d1 = tr.span("cleo.train_individuals")(Trainer.trainIndividuals(ss.filter(_.day == 1)))
    val stacked = tr.span("cleo.train_combined")(Trainer.withCombined(d1, ss.filter(_.day == 2)))
    val full = tr.span("cleo.train_individuals")(Trainer.trainIndividuals(ss.filter(_.day <= 2)))
    full.copy(combined = stacked.combined)
  }

  /** Java-serialized size of the deployed bundle, in MB. */
  def modelMb(set: CleoModelSet): Double = {
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(set); out.close()
    bytes.size / 1e6
  }

  /** Combined-model quality on held-out samples, plus each family's coverage. */
  def quality(set: CleoModelSet, test: Seq[OpSample], preds: Seq[Double], r: Report): Unit = {
    val actual = test.map(_.actual)
    r.metric("cleo.combined_median_err_pct", Metrics.medianErrorPct(preds, actual), "%")
    r.metric("cleo.combined_p95_err_pct", Metrics.p95ErrorPct(preds, actual), "%")
    r.metric("cleo.combined_corr", Metrics.pearson(preds, actual), "ratio")
    r.metric("cleo.model_mb", modelMb(set), "MB")
    Seq(Family.Subgraph -> "sub", Family.Approx -> "approx", Family.Input -> "input",
      Family.Operator -> "operator").foreach { case (f, n) =>
      r.metric(s"cleo.models_$n", set.familyMap(f).size.toDouble, "count")
      r.metric(s"cleo.coverage_${n}_pct", 100.0 * test.count(set.covers(f, _)) / test.size, "%")
    }
  }

  /** Complaint for a prediction batch: every value finite and >= 0, and the
    * combined model present with the operator family covering every row.
    */
  def predictionProblem(set: CleoModelSet, test: Seq[OpSample], preds: Seq[Double]): Option[String] =
    if (set.combined.isEmpty) Some("no combined model")
    else if (preds.exists(p => p.isNaN || p.isInfinite || p < 0))
      Some(s"bad prediction ${preds.find(p => p.isNaN || p.isInfinite || p < 0).get}")
    else if (!test.forall(set.covers(Family.Operator, _))) Some("combined coverage below 100%")
    else None

  /** Written by timed loops so the JIT cannot drop the work being timed. */
  @volatile var sink: Long = 0L

  /** Time (ms) to compute all three signatures over every node of `plans`. */
  def signaturesMs(plans: Seq[Phys], tr: Tracer): Double = tr.span("scopesim.signatures") {
    val nodes = plans.flatMap(_.allNodes)
    val (acc, ms) = Stats.timeMs {
      nodes.foldLeft(0L)((h, n) =>
        h ^ Signatures.subgraph(n) ^ Signatures.approx(n) ^ Signatures.inputSig(n))
    }
    sink = acc
    ms
  }

  def digest(parts: Iterator[String]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    parts.foreach(p => md.update((p + "\n").getBytes("UTF-8")))
    md.digest().take(12).map(b => f"${b & 0xff}%02x").mkString
  }

  /** Digest of the signature triples of every logged sample, in log order. */
  def signatureDigest(ss: Seq[OpSample]): String =
    digest(ss.iterator.map(s => s"${s.sigSub},${s.sigApprox},${s.sigInput}"))

  def jobDigest(runs: Seq[JobRun]): String =
    digest(runs.iterator.map(r => s"${r.jobId},${r.templateId},${r.day},${r.root.allNodes.size}"))
}
