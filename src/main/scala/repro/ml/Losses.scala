package repro.ml

/** Regression loss functions compared in Table 1 of the paper.
  *
  * Each provides a per-sample (sub)gradient weight used by gradient-descent
  * training: d loss / d residual at `r = pred - y`.
  */
sealed trait Loss extends Serializable {
  def name: String
  /** Per-sample subgradient d loss_i / d r_i (possibly depending on all residuals). */
  def gradients(residuals: Array[Double]): Array[Double]
}

object Loss {

  /** Mean squared error in raw space. */
  case object MSE extends Loss {
    val name = "Mean Squared Error"
    def gradients(rs: Array[Double]): Array[Double] = rs.map(r => 2.0 * r / rs.length)
  }

  /** Mean absolute error in raw space. */
  case object MAE extends Loss {
    val name = "Mean Absolute Error"
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
  case object MedAE extends Loss {
    val name = "Median Absolute Error"
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

  /** Mean squared log error: implemented by squared loss on log1p targets
    * (see [[LogSpaceTrainer]]); listed here for naming/tables.
    */
  case object MSLE extends Loss {
    val name = "Mean Squared-Log Error"
    def gradients(rs: Array[Double]): Array[Double] = MSE.gradients(rs)
  }
}
