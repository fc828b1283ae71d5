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
    loss match {
      case Loss.MSE            => fitCoordinate(xs, ys, scaler)
      case l: Loss.Subgradient => fitGradient(xs.map(scaler.transform), ys, scaler, l)
    }
  }

  private def softThreshold(v: Double, t: Double): Double =
    if (v > t) v - t else if (v < -t) v + t else 0.0

  /** Exact cyclic coordinate descent on ½·MSE + l1·|w| + ½·l2·w² by covariance updates
    * (Friedman, Hastie & Tibshirani 2010): one pass over the rows builds G = Z'Z/n and
    * c = Z'(y−ȳ)/n; g = c − G·w is Z'r/n, and a weight that moves updates g in O(d).
    */
  private def fitCoordinate(
      xs: Array[Array[Double]], ys: Array[Double], scaler: Standardizer): ElasticNetModel = {
    val n = xs.length
    val d = xs(0).length
    val yMean = ys.sum / n
    // With a centered target the intercept in standardized space is exactly yMean.
    val gram = Array.ofDim[Double](d, d)
    val g = new Array[Double](d)
    var i = 0
    while (i < n) {
      val z = scaler.transform(xs(i))
      val r = ys(i) - yMean
      var j = 0
      while (j < d) {
        val v = z(j); val row = gram(j); var k = 0
        while (k <= j) { row(k) += v * z(k); k += 1 }
        g(j) += v * r
        j += 1
      }
      i += 1
    }
    var j = 0
    while (j < d) {
      var k = 0
      while (k <= j) { gram(j)(k) /= n; gram(k)(j) = gram(j)(k); k += 1 }
      g(j) /= n
      j += 1
    }
    val w = new Array[Double](d)
    var it = 0
    var maxDelta = Double.MaxValue
    while (it < MaxIter && maxDelta > Tol) {
      maxDelta = 0.0
      j = 0
      while (j < d) {
        val col = gram(j)
        if (col(j) > 1e-12) {
          val wNew = softThreshold(g(j) + col(j) * w(j), l1) / (col(j) + l2)
          val delta = wNew - w(j)
          if (delta != 0.0) {
            var k = 0
            while (k < d) { g(k) -= delta * col(k); k += 1 }
            w(j) = wNew
            maxDelta = math.max(maxDelta, math.abs(delta))
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
