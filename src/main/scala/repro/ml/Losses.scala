package repro.ml

/** Regression loss functions compared in Table 1 of the paper. MSE is fit by
  * exact coordinate descent; the non-smooth MAE and MedAE by subgradient
  * descent, so only they carry a gradient. The fourth row, MSLE, is squared
  * loss on log1p targets ([[LogSpaceTrainer]]).
  */
sealed trait Loss extends Serializable

object Loss {

  /** A loss fit by subgradient descent: d loss / d residual at `r = pred - y`. */
  sealed trait Subgradient extends Loss {
    /** Per-sample subgradient d loss_i / d r_i (possibly depending on all residuals). */
    def gradients(residuals: Array[Double]): Array[Double]
  }

  /** Mean squared error in raw space. */
  case object MSE extends Loss

  /** Mean absolute error in raw space. */
  case object MAE extends Subgradient {
    def gradients(rs: Array[Double]): Array[Double] = rs.map(r => math.signum(r) / rs.length)
  }

  /** Median absolute error in raw space.
    *
    * The true objective is non-smooth and only the sample(s) at the median
    * carry gradient; we use a Gaussian kernel around the current median of
    * |r| so training makes progress, which mirrors how poorly this objective
    * constrains the rest of the distribution (the paper's Table 1 shows it
    * performing worst by far).
    */
  case object MedAE extends Subgradient {
    private def medianAbs(rs: Array[Double]): Double = {
      val a = rs.map(math.abs).sorted
      if (a.length % 2 == 1) a(a.length / 2) else (a(a.length / 2 - 1) + a(a.length / 2)) / 2.0
    }
    def gradients(rs: Array[Double]): Array[Double] = {
      val med = medianAbs(rs)
      val band = math.max(1e-9, med * 0.5)
      rs.map { r =>
        val w = math.exp(-math.pow((math.abs(r) - med) / band, 2))
        math.signum(r) * w / rs.length
      }
    }
  }
}
