package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.cleo.Trainer
import repro.ml.RegressionTree.{Leaf, Node, Split}
import repro.scopesim._

/** The tree learner as a row-major scan: per node and feature it sorts the
  * node's values, then scans all of the node's rows once per quantile
  * candidate. The reference the presorted finder must match tree for tree;
  * it shares the finder's tie rule.
  */
private object ScanRegressionTree {

  def fit(t: RegressionTree, xs: Array[Array[Double]], ys: Array[Double]): Node =
    build(t, xs, ys, xs.indices.toArray, 0, new scala.util.Random(t.seed))

  private def mean(ys: Array[Double], idx: Array[Int]): Double = {
    var s = 0.0; var i = 0
    while (i < idx.length) { s += ys(idx(i)); i += 1 }
    s / idx.length
  }

  private def sse(ys: Array[Double], idx: Array[Int]): Double = {
    val m = mean(ys, idx)
    var s = 0.0; var i = 0
    while (i < idx.length) { val d = ys(idx(i)) - m; s += d * d; i += 1 }
    s
  }

  private def build(
      t: RegressionTree, xs: Array[Array[Double]], ys: Array[Double], idx: Array[Int],
      depth: Int, rng: scala.util.Random): Node = {
    if (depth >= t.maxDepth || idx.length < 2 * t.minLeaf) return Leaf(mean(ys, idx))
    val parentSse = sse(ys, idx)
    if (parentSse < 1e-12) return Leaf(mean(ys, idx))

    val d = xs(0).length
    val feats: Array[Int] = t.featureSubset match {
      case Some(k) if k < d => rng.shuffle((0 until d).toList).take(k).toArray
      case _                => (0 until d).toArray
    }

    var bestGain = 0.0
    var bestFeat = -1
    var bestThr = 0.0
    for (f <- feats) {
      val vals = idx.map(i => xs(i)(f)).sorted
      val cand = (1 until RegressionTree.Bins).iterator
        .map(b => vals((b * (vals.length - 1)) / RegressionTree.Bins))
        .distinct
        .toArray
      for (thr <- cand) {
        var ln = 0; var ls = 0.0; var lss = 0.0
        var rn = 0; var rs = 0.0; var rss = 0.0
        var i = 0
        while (i < idx.length) {
          val y = ys(idx(i))
          if (xs(idx(i))(f) <= thr) { ln += 1; ls += y; lss += y * y }
          else { rn += 1; rs += y; rss += y * y }
          i += 1
        }
        if (ln >= t.minLeaf && rn >= t.minLeaf) {
          val childSse = (lss - ls * ls / ln) + (rss - rs * rs / rn)
          val gain = parentSse - childSse
          if (gain > bestGain + RegressionTree.TieTolerance * math.abs(bestGain)) {
            bestGain = gain; bestFeat = f; bestThr = thr
          }
        }
      }
    }
    if (bestFeat < 0) return Leaf(mean(ys, idx))
    val (li, ri) = idx.partition(i => xs(i)(bestFeat) <= bestThr)
    Split(bestFeat, bestThr, build(t, xs, ys, li, depth + 1, rng), build(t, xs, ys, ri, depth + 1, rng))
  }

  /** `FastTree.fit`'s trees, each grown by the scan. */
  def fastTree(ft: FastTree, xs: Array[Array[Double]], ys: Array[Double]): Seq[Node] = {
    val rng = new scala.util.Random(ft.seed)
    val n = xs.length
    val pred = Array.fill(n)(ys.sum / n)
    (0 until ft.nTrees).map { t =>
      val take = math.max(2, (ft.subsample * n).toInt)
      val idx =
        if (take >= n) (0 until n).toArray
        else rng.shuffle((0 until n).toList).take(take).toArray
      val root = fit(RegressionTree(ft.maxDepth, seed = ft.seed + t),
        idx.map(xs), idx.map(i => ys(i) - pred(i)))
      val tree = RegressionTree.Model(root)
      (0 until n).foreach(i => pred(i) += FastTree.LearningRate * tree.predict(xs(i)))
      root
    }
  }

  /** `RandomForest.fit`'s trees, each grown by the scan. */
  def randomForest(rf: RandomForest, xs: Array[Array[Double]], ys: Array[Double]): Seq[Node] = {
    val rng = new scala.util.Random(rf.seed)
    val mtry = math.max(1, math.ceil(math.sqrt(xs(0).length.toDouble)).toInt)
    (0 until rf.nTrees).map { t =>
      val idx = Array.fill(xs.length)(rng.nextInt(xs.length))
      fit(RegressionTree(rf.maxDepth, featureSubset = Some(mtry), seed = rf.seed + t),
        idx.map(xs), idx.map(ys))
    }
  }
}

class TreeReferenceSpec extends AnyFunSuite {

  /** The retrain benchmark's combined-model rows: the first quarter of
    * cluster 1's templates, day-2 meta-features against day-1 individual
    * models, log1p targets (what `Trainer.withCombined` fits).
    */
  private lazy val (metaXs, metaYs) = {
    val c = WorkloadGen.cluster(1)
    val cfg = c.copy(nTemplates = c.nTemplates / 4)
    val ss = Logs.samples(WorkloadGen.genJobs(cfg), cfg.gtConfig)
    val d1 = Trainer.trainIndividuals(ss.filter(_.day == 1))
    val d2 = ss.filter(_.day == 2)
    (d2.map(d1.metaFeatures).toArray, d2.map(s => math.log1p(math.max(0.0, s.actual))).toArray)
  }

  private def roots(m: Regressor): Seq[Node] = m match {
    case t: RegressionTree.Model => Seq(t.root)
    case f: FastTree.Model       => f.trees.toSeq.flatMap(roots)
    case r: RandomForest.Model   => r.trees.toSeq.flatMap(roots)
  }

  private def assertSameTrees(got: Seq[Node], want: Seq[Node]): Unit = {
    assert(got.size == want.size)
    got.zip(want).zipWithIndex.foreach { case ((g, w), t) => assert(g == w, s"tree $t differs") }
  }

  test("combined-model FastTree grows the scan's trees on the retrain rows") {
    assert(metaXs.length > 4000)
    val ft = Trainer.fastTree
    assertSameTrees(roots(ft.fit(metaXs, metaYs)), ScanRegressionTree.fastTree(ft, metaXs, metaYs))
  }

  test("depth-15 regression tree is the scan's tree") {
    val t = RegressionTree(maxDepth = 15)
    assertSameTrees(roots(t.fit(metaXs, metaYs)), Seq(ScanRegressionTree.fit(t, metaXs, metaYs)))
  }

  test("random forest with duplicated columns grows the scan's trees") {
    // Every column twice: whenever both copies are drawn, their gains tie.
    val xs = metaXs.map(x => x ++ x)
    val rf = RandomForest(nTrees = 20, maxDepth = 5)
    assertSameTrees(roots(rf.fit(xs, metaYs)), ScanRegressionTree.randomForest(rf, xs, metaYs))
  }
}
