package repro.ml

/** L1+L2-regularized linear regression (Zou & Hastie), the paper's model of
  * choice for all individual cost models (Section 3.4: alpha=1.0, l1
  * ratio=0.5, fit intercept). Features are standardized internally.
  */
final case class ElasticNetModel(
    weights: Array[Double], // in standardized space
    intercept: Double,
    scaler: Standardizer,
) extends Regressor {

  override def predict(x: Array[Double]): Double = {
    var s = intercept
    var j = 0
    while (j < weights.length) {
      s += weights(j) * (x(j) - scaler.mean(j)) / scaler.std(j)
      j += 1
    }
    s
  }
}

/** Coordinate-descent trainer for squared loss; (sub)gradient descent for the
  * non-smooth Table-1 losses.
  *
  * @param l1 strength of the lasso term
  * @param l2 strength of the ridge term
  * @param loss raw-space loss; MSE uses exact coordinate descent
  */
final case class ElasticNet(
    l1: Double = 0.01,
    l2: Double = 0.01,
    loss: Loss = Loss.MSE,
) extends Trainer {

  /** Coordinate-descent sweeps, and the largest weight change that stops them early. */
  private val MaxIter = 400
  private val Tol = 1e-8

  /** Subgradient-descent epochs. */
  private val Epochs = 600

  override def fit(xs: Array[Array[Double]], ys: Array[Double]): ElasticNetModel = {
    require(xs.nonEmpty && xs.length == ys.length, "empty or mismatched training set")
    val scaler = Standardizer.fit(xs)
    val z = xs.map(scaler.transform)
    loss match {
      case Loss.MSE            => fitCoordinate(z, ys, scaler)
      case l: Loss.Subgradient => fitGradient(z, ys, scaler, l)
    }
  }

  private def softThreshold(v: Double, t: Double): Double =
    if (v > t) v - t else if (v < -t) v + t else 0.0

  /** Exact cyclic coordinate descent on ½·MSE + l1·|w| + ½·l2·w². */
  private def fitCoordinate(
      z: Array[Array[Double]], ys: Array[Double], scaler: Standardizer): ElasticNetModel = {
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
          val wNew = softThreshold(rho, l1) / (colSq(j) + l2)
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

  /** Full-batch subgradient descent for MAE / MedAE with the same penalty. */
  private def fitGradient(
      z: Array[Array[Double]], ys: Array[Double], scaler: Standardizer, l: Loss.Subgradient): ElasticNetModel = {
    val n = z.length
    val d = z(0).length
    val w = new Array[Double](d)
    var b = ys.sum / n
    // scale-aware step: residuals are in raw target units
    val yScale = math.max(1e-9, ys.map(math.abs).sum / n)
    var lr = 0.5 * yScale
    var e = 0
    while (e < Epochs) {
      val res = new Array[Double](n)
      var i = 0
      while (i < n) {
        var p = b; var j = 0
        while (j < d) { p += w(j) * z(i)(j); j += 1 }
        res(i) = p - ys(i)
        i += 1
      }
      val g = l.gradients(res)
      val gw = new Array[Double](d)
      var gb = 0.0
      i = 0
      while (i < n) {
        val gi = g(i); var j = 0
        while (j < d) { gw(j) += gi * z(i)(j); j += 1 }
        gb += gi
        i += 1
      }
      var j = 0
      while (j < d) {
        val grad = gw(j) + l2 * w(j) + l1 * math.signum(w(j))
        w(j) -= lr * grad
        j += 1
      }
      b -= lr * gb
      lr *= 0.997
      e += 1
    }
    ElasticNetModel(w, b, scaler)
  }
}
