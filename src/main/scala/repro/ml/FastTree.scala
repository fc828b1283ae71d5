package repro.ml

/** Gradient-boosted regression trees in the style of ML.NET's FastTree (MART):
  * successive shallow trees fit the residual of the ensemble so far, each on a
  * random sub-sample of rows (paper setting for the combined model: ≤20 trees,
  * depth 5, sub-sampling rate 0.9, squared loss in log space ≡ MSLE).
  */
final case class FastTree(
    nTrees: Int = 20,
    maxDepth: Int = 5,
    subsample: Double = 0.9,
    seed: Long = 31,
) extends Trainer {
  import FastTree.{LearningRate, Model}

  override def fit(xs: Array[Array[Double]], ys: Array[Double]): Regressor = {
    require(xs.nonEmpty, "empty training set")
    val rng = new scala.util.Random(seed)
    val n = xs.length
    val base = ys.sum / n
    val pred = Array.fill(n)(base)
    val trees = new Array[Regressor](nTrees)
    var t = 0
    while (t < nTrees) {
      val take = math.max(2, (subsample * n).toInt)
      val idx =
        if (take >= n) (0 until n).toArray
        else rng.shuffle((0 until n).toList).take(take).toArray
      val bx = idx.map(xs)
      val br = idx.map(i => ys(i) - pred(i))
      val tree = RegressionTree(maxDepth, seed = seed + t).fit(bx, br)
      var i = 0
      while (i < n) { pred(i) += LearningRate * tree.predict(xs(i)); i += 1 }
      trees(t) = tree
      t += 1
    }
    Model(base, trees)
  }
}

object FastTree {
  /** Shrinkage applied to every tree's output; `final`, so a literal in `Model.predict`. */
  final val LearningRate = 0.2

  final case class Model(base: Double, trees: Array[Regressor]) extends Regressor {
    override def predict(x: Array[Double]): Double = {
      var s = base; var i = 0
      while (i < trees.length) { s += LearningRate * trees(i).predict(x); i += 1 }
      s
    }
  }
}
