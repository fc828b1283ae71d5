package perfbench

import repro.cleo.CleoModelSet
import repro.scopesim.{ClusterConfig, GroundTruth, JobRun, OpSample}
import scala.collection.mutable.ArrayBuffer

/** `retrain`: the Section 5.1 feedback loop — extract the logs, train the
  * individual models on day 1, the combined model on day 2, the individual
  * models again on days 1-2, then predict day 3. No SparkSession; the
  * planner is never called.
  *
  * The jobs are the fixed quarter of cluster 1 (`Sim.config`); the seed drives
  * the simulated runtime that writes the logs, so each seed trains on other
  * labels while the amount of work stays the same.
  *
  * One pipeline runs untimed first, so that the timed ones run compiled code;
  * then pipelines repeat until the run's seconds are spent, at least three.
  * task_s is their median. op_ms_p50 is the latency of costing one operator
  * with the retrained bundle (the optimizer's view of it): after each timed
  * pipeline, each day-3 job's operators are costed together with its bundle,
  * in a few passes, and the time is divided by their number; a job's time is
  * its median over all passes, and op_ms_p50 the median over jobs. So these
  * samples, like the pipelines, spread over the whole run.
  */
object Retrain {

  /** Retrain uses the first quarter of cluster 1's templates, so that a run
    * holds five or more pipelines.
    */
  val Share = 4
  val MinPipelines = 3
  /** Passes over the day-3 jobs after each timed pipeline. */
  val PredictPasses = 10

  final case class Pipeline(wallMs: Double, samples: Vector[OpSample], set: CleoModelSet,
                            test: Vector[OpSample], preds: Vector[Double])

  def pipeline(runs: Vector[JobRun], gt: GroundTruth.Config, tr: Tracer): Pipeline = {
    val ((ss, set, test, preds), ms) = Stats.timeMs(tr.span("retrain.pipeline") {
      val ss = Sim.samples(runs, gt, tr)
      val set = Sim.train(ss, tr)
      val test = ss.filter(_.day == 3)
      val preds = tr.span("cleo.predict")(test.map(set.predict))
      (ss, set, test, preds)
    })
    Pipeline(ms, ss, set, test, preds)
  }

  def run(o: Opts, tr: Tracer, r: Report): Unit = {
    val cfg: ClusterConfig = Sim.config(o.tiny, Share)
    val gt = Sim.logRuntime(cfg, o.seed)
    val (runs, genMs) = Sim.generate(cfg, tr, r)
    r.metric("setup_s", Stats.median(genMs) / 1e3, "s")

    def attempt(i: Int, t: Tracer): Option[Pipeline] = {
      var out: Option[Pipeline] = None
      r.op(s"retrain pipeline $i") {
        val p = pipeline(runs, gt, t)
        out = Some(p)
        val preds = if (o.fault && i == 1) p.preds.updated(0, Double.NaN) else p.preds
        Sim.predictionProblem(p.set, p.test, preds)
      }
      out
    }
    // Per job, the per-operator costing times of every pass.
    val perJob = scala.collection.mutable.LinkedHashMap.empty[Long, ArrayBuffer[Double]]
    var passes = 0
    def costJobs(p: Pipeline): Unit = {
      // A deployed bundle is long-lived: by the time the optimizer uses it,
      // collections have moved it out of the training garbage it was built
      // among. A full collection here does that, so whether one happened to
      // run after training does not decide how the bundle lies in memory.
      System.gc()
      val byJob = p.test.groupBy(_.jobId).toVector.sortBy(_._1)
      (1 to PredictPasses).foreach { _ =>
        byJob.foreach { case (id, ops) =>
          r.op(s"predict job $id") {
            val (preds, ms) = Stats.timeMs(ops.map(p.set.predict))
            perJob.getOrElseUpdate(id, ArrayBuffer.empty) += ms / ops.size
            Sim.predictionProblem(p.set, ops, preds)
          }
        }
        passes += 1
      }
    }

    val warm = attempt(0, new Tracer(false))
    val t0 = System.nanoTime()
    val pipes = ArrayBuffer.empty[Pipeline]
    var i = 0
    while (i < MinPipelines || (System.nanoTime() - t0) / 1e9 < o.seconds) {
      i += 1
      attempt(i, tr).foreach { p => pipes += p; costJobs(p) }
    }
    require(pipes.nonEmpty, "no retrain pipeline completed")
    val sigDigests = (warm ++ pipes).map(p => Sim.signatureDigest(p.samples)).toSeq.distinct
    r.op("signature fingerprint repeats across the run's pipelines") {
      if (sigDigests.size == 1 && pipes.size == i) None
      else Some(s"${pipes.size} of $i pipelines completed; digests ${sigDigests.mkString(" ")}")
    }
    r.fingerprints("signatures") = sigDigests.head
    val last = pipes.last
    val opMs = perJob.values.map(ms => Stats.median(ms.toSeq)).toSeq

    r.metric(if (tr.enabled) "trace.task_s" else "task_s", Stats.median(pipes.map(_.wallMs).toSeq) / 1e3, "s")
    r.metric("op_ms_p50", Stats.median(opMs), "ms")
    r.info("pipelines") = s"1 warm-up + ${pipes.size} timed"
    r.info("pipeline_s") = pipes.map(p => f"${p.wallMs / 1e3}%.3f").mkString(" ")
    r.info("jobs") = runs.size.toString
    r.info("samples") = last.samples.size.toString
    r.info("op_samples") = s"${perJob.size} jobs x $passes passes"

    Sim.quality(last.set, last.test, last.preds, r)
    r.metric("scopesim.gen_jobs_ms", Stats.median(genMs), "ms")
    if (tr.enabled) {
      r.metric("scopesim.logs_ms", Stats.median(tr.durations("scopesim.logs")), "ms")
      val indiv = tr.durations("cleo.train_individuals").grouped(2).map(_.sum).toSeq
      r.metric("cleo.train_individuals_ms", Stats.median(indiv), "ms")
      r.metric("cleo.train_combined_ms", Stats.median(tr.durations("cleo.train_combined")), "ms")
      r.metric("cleo.predict_rows_per_s",
        last.test.size / (Stats.median(tr.durations("cleo.predict")) / 1e3), "1/s")
      r.metric("scopesim.signatures_ms",
        Sim.signaturesMs(runs.filter(_.day == 3).map(_.root), tr), "ms")
    }
    r.metric("cleo.meta_rows", last.samples.count(_.day == 2).toDouble, "count")
  }
}
