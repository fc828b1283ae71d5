package repro.ml

/** Bagged ensemble of regression trees (paper setting: 20 trees, depth 5). */
final case class RandomForest(
    nTrees: Int = 20,
    maxDepth: Int = 5,
    seed: Long = 23,
) extends Trainer {
  import RandomForest.Model

  override def fit(xs: Array[Array[Double]], ys: Array[Double]): Regressor = {
    require(xs.nonEmpty, "empty training set")
    val rng = new scala.util.Random(seed)
    val d = xs(0).length
    val mtry = math.max(1, math.ceil(math.sqrt(d.toDouble)).toInt)
    val trees = Array.tabulate[Regressor](nTrees) { t =>
      val idx = Array.fill(xs.length)(rng.nextInt(xs.length)) // bootstrap
      val bx = idx.map(xs)
      val by = idx.map(ys)
      RegressionTree(maxDepth, featureSubset = Some(mtry), seed = seed + t).fit(bx, by)
    }
    Model(trees)
  }
}

object RandomForest {
  final case class Model(trees: Array[Regressor]) extends Regressor {
    override def predict(x: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < trees.length) { s += trees(i).predict(x); i += 1 }
      s / trees.length
    }
  }
}
