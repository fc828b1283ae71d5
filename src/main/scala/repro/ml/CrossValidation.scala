package repro.ml

/** K-fold cross-validation over a per-model sample set: returns out-of-fold
  * (prediction, actual) pairs so metrics pool across the whole workload as in
  * the paper's 5-fold CV tables.
  */
object CrossValidation {

  /** Folds of [[outOfFold]], and the seed of their assignment. */
  private val Folds = 5
  private val FoldSeed = 7L

  def foldAssignment(n: Int, k: Int, seed: Long): Array[Int] = {
    val rng = new scala.util.Random(seed)
    val idx = rng.shuffle((0 until n).toList).toArray
    val folds = new Array[Int](n)
    var i = 0
    while (i < n) { folds(idx(i)) = i % k; i += 1 }
    folds
  }

  /** Out-of-fold predictions; folds with fewer than 2 training rows are skipped. */
  def outOfFold(
      xs: Array[Array[Double]],
      ys: Array[Double],
      trainer: Trainer,
  ): Seq[(Double, Double)] = {
    val n = xs.length
    if (n < Folds) return Seq.empty
    val folds = foldAssignment(n, Folds, FoldSeed)
    (0 until Folds).flatMap { f =>
      val trainIdx = (0 until n).filter(folds(_) != f).toArray
      val testIdx = (0 until n).filter(folds(_) == f).toArray
      if (trainIdx.length < 2 || testIdx.isEmpty) Seq.empty
      else {
        val m = trainer.fit(trainIdx.map(xs), trainIdx.map(ys))
        testIdx.map(i => (m.predict(xs(i)), ys(i))).toSeq
      }
    }
  }
}
