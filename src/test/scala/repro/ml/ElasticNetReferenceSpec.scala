package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.cleo.{Family, Trainer}
import repro.scopesim._

/** The squared-loss elastic net as a row sweep: every coordinate of every sweep
  * walks all n rows, both to form ρ_j and to update the residuals, so a fit
  * costs O(sweeps·d·n). The reference the covariance-update fit must match;
  * it has the same objective, coordinate order, stop rule and dead-column skip.
  */
private[repro] object RowSweepElasticNet {

  /** `ElasticNet`'s coordinate-descent stop rule. */
  private val MaxIter = 400
  private val Tol = 1e-8

  private def softThreshold(v: Double, t: Double): Double =
    if (v > t) v - t else if (v < -t) v + t else 0.0

  def fit(en: ElasticNet, xs: Array[Array[Double]], ys: Array[Double]): ElasticNetModel = {
    val scaler = Standardizer.fit(xs)
    val z = xs.map(scaler.transform)
    val n = z.length
    val d = z(0).length
    val w = new Array[Double](d)
    val yMean = ys.sum / n
    // residual r_i = y_i - (intercept + w·z_i); with centered target the
    // intercept in standardized space is exactly yMean.
    val r = ys.map(_ - yMean)
    // per-column mean square (z is standardized so ≈1, but be exact)
    val colSq = new Array[Double](d)
    var j = 0
    while (j < d) {
      var s = 0.0; var i = 0
      while (i < n) { val v = z(i)(j); s += v * v; i += 1 }
      colSq(j) = s / n
      j += 1
    }
    var it = 0
    var maxDelta = Double.MaxValue
    while (it < MaxIter && maxDelta > Tol) {
      maxDelta = 0.0
      j = 0
      while (j < d) {
        if (colSq(j) > 1e-12) {
          var rho = 0.0
          var i = 0
          while (i < n) { rho += z(i)(j) * r(i); i += 1 }
          rho = rho / n + colSq(j) * w(j)
          val wNew = softThreshold(rho, en.l1) / (colSq(j) + en.l2)
          val delta = wNew - w(j)
          if (delta != 0.0) {
            i = 0
            while (i < n) { r(i) -= delta * z(i)(j); i += 1 }
            w(j) = wNew
            val ad = math.abs(delta)
            if (ad > maxDelta) maxDelta = ad
          }
        }
        j += 1
      }
      it += 1
    }
    ElasticNetModel(w, yMean, scaler)
  }
}

class ElasticNetReferenceSpec extends AnyFunSuite {

  test("every cluster-4 individual model matches the row sweep to 1e-10") {
    val cfg = WorkloadGen.cluster(4)
    val train = Logs.samples(WorkloadGen.genJobs(cfg), cfg.gtConfig).filter(_.day <= 2)
    val en = Trainer.elasticNet
    var (fits, maxPred, maxWeight) = (0, 0.0, 0.0)
    for (f <- Family.all; (sig, ss) <- Trainer.groups(train, f)) {
      // What `Trainer.trainIndividuals` fits: features against log1p targets.
      val xs = ss.map(_.features)
      val ys = ss.map(s => math.log1p(math.max(0.0, s.actual)))
      val (got, want) = (en.fit(xs, ys), RowSweepElasticNet.fit(en, xs, ys))
      val where = s"${f.name} group $sig (${xs.length} rows)"
      assert(got.intercept == want.intercept, where)
      assert(got.scaler.mean.sameElements(want.scaler.mean) && got.scaler.std.sameElements(want.scaler.std), where)
      val dPred = xs.map(x => math.abs(got.predict(x) - want.predict(x))).max
      val dWeight = got.weights.indices.map(j => math.abs(got.weights(j) - want.weights(j))).max
      assert(dPred <= 1e-10 && dWeight <= 1e-10, s"$where: prediction diff $dPred, weight diff $dWeight")
      fits += 1; maxPred = math.max(maxPred, dPred); maxWeight = math.max(maxWeight, dWeight)
    }
    assert(fits > 1000, s"only $fits groups")
    println(f"elastic net vs row sweep over $fits%d cluster-4 groups: largest log-space prediction " +
      f"difference $maxPred%.3g, largest weight difference $maxWeight%.3g")
  }
}
