package repro.cleo

import repro.core.OpStats
import repro.scopesim.OpSample

/** Reimplementation of CardLearner [Wu et al., PVLDB'18] as the paper's
  * Section 6.4 comparison point: per-subgraph Poisson regression models that
  * correct cardinality estimates, leaving the cost model itself unchanged.
  *
  * Each model regresses the observed cardinality on the optimizer's estimate
  * (log link): E[card] = exp(w0 + w1·log1p(est) + w2·log1p(estIn)).
  */
object CardLearner {

  final case class PoissonModel(w: Array[Double]) extends Serializable {
    def predict(est: Double, estIn: Double): Double = {
      val eta = w(0) + w(1) * math.log1p(est) + w(2) * math.log1p(estIn)
      math.exp(math.min(25.0, eta)) // cap: counts beyond e^25 are out of range
    }
  }

  /** Poisson GLM by IRLS on x = [1, log1p(est), log1p(estIn)], guarded by an
    * identity-mapping fallback if the solve degenerates.
    */
  def fitPoisson(rows: Seq[(Double, Double, Double)] /* (actual, est, estIn) */): PoissonModel = {
    val n = rows.length
    val xs = rows.map { case (_, e, ei) => Array(1.0, math.log1p(e), math.log1p(ei)) }
    val ys = rows.map(_._1)
    // start at the identity correction: card ≈ est
    var w = Array(0.0, 1.0, 0.0)
    var it = 0
    var ok = true
    while (it < 12 && ok) {
      // IRLS step: solve (X' W X) d = X' (y - mu) with W = diag(mu)
      val a = Array.ofDim[Double](3, 3)
      val b = new Array[Double](3)
      var i = 0
      while (i < n) {
        val x = xs(i)
        val eta = w(0) * x(0) + w(1) * x(1) + w(2) * x(2)
        val mu = math.exp(math.min(25.0, eta))
        var r = 0
        while (r < 3) {
          b(r) += x(r) * (ys(i) - mu)
          var c = 0
          while (c < 3) { a(r)(c) += mu * x(r) * x(c); c += 1 }
          r += 1
        }
        i += 1
      }
      var r = 0
      while (r < 3) { a(r)(r) += 1e-6 * (1.0 + a(r)(r)); r += 1 } // ridge guard
      repro.ml.SmallSolve.solve3(a, b) match {
        case Some(d) =>
          val step = d.map(v => math.max(-2.0, math.min(2.0, v)))
          w = Array(w(0) + step(0), w(1) + step(1), w(2) + step(2))
          if (step.map(math.abs).max < 1e-6) ok = false
        case None => ok = false
      }
      it += 1
    }
    if (w.exists(v => v.isNaN || v.isInfinite)) PoissonModel(Array(0.0, 1.0, 0.0))
    else PoissonModel(w)
  }

  /** Trained corrector: per-subgraph models for output and input cards. */
  final case class Model(
      outBySig: Map[Long, PoissonModel],
      inBySig: Map[Long, PoissonModel],
  ) extends Serializable {

    /** Corrections are clamped to a 6× band around the original estimate —
      * a correction model extrapolating beyond that is noise, not signal
      * (CardLearner learns per-subgraph adjustment factors, which are
      * bounded in practice).
      */
    private def clamp(pred: Double, est: Double): Double =
      math.max(1.0, math.max(est / 6.0, math.min(est * 6.0, pred)))

    /** CardLearner covers strict subgraphs only (its defining limitation,
      * §6.4/§7); estimates without a per-subgraph model pass through
      * uncorrected.
      */
    def correctedStats(s: OpSample): OpStats = {
      val c2 = outBySig.get(s.sigSub).map(m => clamp(m.predict(s.stats.c, s.stats.i), s.stats.c))
        .getOrElse(s.stats.c)
      val i2 = inBySig.get(s.sigSub).map(m => clamp(m.predict(s.stats.i, s.stats.b), s.stats.i))
        .getOrElse(s.stats.i)
      s.stats.copy(i = i2, c = c2)
    }
  }

  def train(samples: Seq[OpSample]): Model = {
    def fitMap(rows: OpSample => (Double, Double, Double)): Map[Long, PoissonModel] =
      samples.groupBy(_.sigSub).collect {
        case (k, ss) if ss.size >= Trainer.MinOccurrences => k -> fitPoisson(ss.map(rows))
      }
    Model(
      outBySig = fitMap(s => (s.trueC, s.stats.c, s.stats.i)),
      inBySig = fitMap(s => (s.trueI, s.stats.i, s.stats.b)),
    )
  }
}
