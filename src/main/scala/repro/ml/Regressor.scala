package repro.ml

/** A trained regression model: maps a feature vector to a scalar prediction. */
trait Regressor extends Serializable {
  def predict(x: Array[Double]): Double
}

/** A training algorithm producing a [[Regressor]] from a dense design matrix. */
trait Trainer extends Serializable {
  def fit(xs: Array[Array[Double]], ys: Array[Double]): Regressor
}

/** Per-column standardization (z-score). Zero-variance columns map to 0 so a
  * constant feature (e.g. the input-template hash inside a specialized model)
  * is inert rather than numerically explosive.
  */
final case class Standardizer(mean: Array[Double], std: Array[Double]) extends Serializable {
  def transform(x: Array[Double]): Array[Double] = {
    val out = new Array[Double](x.length)
    var j = 0
    while (j < x.length) { out(j) = (x(j) - mean(j)) / std(j); j += 1 }
    out
  }
}

object Standardizer {
  def fit(xs: Array[Array[Double]]): Standardizer = {
    val d = xs(0).length
    val mean = new Array[Double](d)
    val std = new Array[Double](d)
    val n = xs.length.toDouble
    var i = 0
    while (i < xs.length) {
      val x = xs(i); var j = 0
      while (j < d) { mean(j) += x(j); j += 1 }
      i += 1
    }
    var j = 0
    while (j < d) { mean(j) /= n; j += 1 }
    i = 0
    while (i < xs.length) {
      val x = xs(i); var k = 0
      while (k < d) { val dv = x(k) - mean(k); std(k) += dv * dv; k += 1 }
      i += 1
    }
    j = 0
    while (j < d) {
      std(j) = math.sqrt(std(j) / n)
      if (std(j) < 1e-12) std(j) = 1.0 // dead column: stays centered at 0
      j += 1
    }
    Standardizer(mean, std)
  }
}

/** Wraps a trainer so it fits `log1p(y)` and predicts `expm1(ŷ)`.
  *
  * Squared error in the wrapped space is exactly the paper's mean-squared-log
  * error, and the inverse transform guarantees positive predicted costs
  * (Section 3.2 of the paper). Predictions are clamped to the training-target
  * range plus a margin before exponentiation — without this, a linear model
  * extrapolating on drifted inputs explodes through `expm1` and a handful of
  * runaway predictions dominate every raw-space metric.
  */
final case class LogSpaceTrainer(inner: Trainer) extends Trainer {
  override def fit(xs: Array[Array[Double]], ys: Array[Double]): Regressor = {
    val logYs = ys.map(y => math.log1p(math.max(0.0, y)))
    val (zMin, zMax) = (logYs.min, logYs.max)
    val m = inner.fit(xs, logYs)
    new Regressor {
      override def predict(x: Array[Double]): Double = LogSpaceTrainer.fromLog(m.predict(x), zMin, zMax)
    }
  }
}

object LogSpaceTrainer {

  /** A log-space prediction `z` back in raw space: `expm1` of `z` clamped to
    * the training targets' range `[zMin, zMax]` widened by 1.5, floored at 0.
    */
  def fromLog(z: Double, zMin: Double, zMax: Double): Double =
    math.max(0.0, math.expm1(math.min(zMax + 1.5, math.max(zMin - 1.5, z))))
}
