package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class TreeSpec extends AnyFunSuite {

  private def stepData(n: Int, seed: Long) = {
    val rng = new scala.util.Random(seed)
    val xs = Array.fill(n)(Array(rng.nextDouble() * 10, rng.nextDouble()))
    val ys = xs.map(x => if (x(0) < 5.0) 1.0 else 10.0)
    (xs, ys)
  }

  test("regression tree fits a step function exactly") {
    val (xs, ys) = stepData(200, 1)
    val m = RegressionTree(maxDepth = 3).fit(xs, ys)
    xs.zip(ys).foreach { case (x, y) => assert(m.predict(x) === y) }
  }

  test("depth-0 tree is a single leaf predicting the mean") {
    val (xs, ys) = stepData(100, 2)
    val m = RegressionTree(maxDepth = 0).fit(xs, ys)
    val mean = ys.sum / ys.length
    assert(math.abs(m.predict(xs(0)) - mean) < 1e-9)
  }

  test("deeper trees reduce training error on smooth targets") {
    val rng = new scala.util.Random(3)
    val xs = Array.fill(400)(Array(rng.nextDouble() * 6))
    val ys = xs.map(x => math.sin(x(0)))
    def sse(d: Int) = {
      val m = RegressionTree(maxDepth = d).fit(xs, ys)
      xs.zip(ys).map { case (x, y) => math.pow(m.predict(x) - y, 2) }.sum
    }
    assert(sse(6) < sse(2))
    assert(sse(2) < sse(0) + 1e-9)
  }

  test("minLeaf is respected (no leaf trained on fewer samples)") {
    val (xs, ys) = stepData(40, 4)
    // with minLeaf = 15 only one split is feasible at most
    val m = RegressionTree(maxDepth = 10, minLeaf = 15).fit(xs, ys)
    def depth(n: RegressionTree.Node): Int = n match {
      case RegressionTree.Leaf(_)           => 0
      case RegressionTree.Split(_, _, l, r) => 1 + math.max(depth(l), depth(r))
    }
    assert(depth(m.root) <= 2)
  }

  test("tree is deterministic") {
    val (xs, ys) = stepData(150, 5)
    val a = RegressionTree(maxDepth = 6).fit(xs, ys)
    val b = RegressionTree(maxDepth = 6).fit(xs, ys)
    xs.foreach(x => assert(a.predict(x) === b.predict(x)))
  }

  test("random forest averages trees and fits the step") {
    val (xs, ys) = stepData(300, 6)
    val m = RandomForest(nTrees = 10, maxDepth = 4).fit(xs, ys)
    val errs = xs.zip(ys).map { case (x, y) => math.abs(m.predict(x) - y) }
    assert(errs.sum / errs.length < 1.0)
  }

  test("random forest deterministic under fixed seed") {
    val (xs, ys) = stepData(100, 7)
    val a = RandomForest(seed = 42).fit(xs, ys)
    val b = RandomForest(seed = 42).fit(xs, ys)
    xs.take(20).foreach(x => assert(a.predict(x) === b.predict(x)))
  }

  test("fasttree reduces residuals stage by stage") {
    val rng = new scala.util.Random(8)
    val xs = Array.fill(300)(Array(rng.nextDouble() * 10, rng.nextDouble() * 10))
    val ys = xs.map(x => x(0) * 2 + x(1) + rng.nextGaussian() * 0.1)
    def sse(k: Int) = {
      val m = FastTree(nTrees = k, maxDepth = 3).fit(xs, ys)
      xs.zip(ys).map { case (x, y) => math.pow(m.predict(x) - y, 2) }.sum
    }
    assert(sse(20) < sse(5))
    assert(sse(5) < sse(1))
  }

  test("fasttree with zero trees predicts the base mean") {
    val (xs, ys) = stepData(50, 9)
    val m = FastTree(nTrees = 0).fit(xs, ys)
    assert(math.abs(m.predict(xs(0)) - ys.sum / ys.length) < 1e-9)
  }

  test("fasttree subsampling is deterministic under fixed seed") {
    val (xs, ys) = stepData(200, 10)
    val a = FastTree(subsample = 0.7, seed = 5).fit(xs, ys)
    val b = FastTree(subsample = 0.7, seed = 5).fit(xs, ys)
    xs.take(20).foreach(x => assert(a.predict(x) === b.predict(x)))
  }

  test("forest beats a stump on noisy step data") {
    val rng = new scala.util.Random(11)
    val xs = Array.fill(400)(Array.fill(5)(rng.nextDouble() * 4))
    val ys = xs.map(x => (if (x(0) > 2) 5.0 else 0.0) + (if (x(3) > 2) 3.0 else 0.0) + rng.nextGaussian() * 0.2)
    def sse(t: Trainer) = {
      val m = t.fit(xs, ys)
      xs.zip(ys).map { case (x, y) => math.pow(m.predict(x) - y, 2) }.sum
    }
    assert(sse(RandomForest(nTrees = 20, maxDepth = 5)) < sse(RegressionTree(maxDepth = 1)))
  }
}

class TreeDegenerateSpec extends AnyFunSuite {
  import RegressionTree.{Leaf, Split}

  private def root(xs: Array[Array[Double]], ys: Array[Double], t: RegressionTree = RegressionTree()) =
    t.fit(xs, ys).root

  test("constant features give one leaf at the mean") {
    val xs = Array.fill(50)(Array(3.0, -1.0))
    val ys = Array.tabulate(50)(i => i.toDouble)
    assert(root(xs, ys) == Leaf(ys.sum / ys.length))
  }

  test("equal targets give one leaf at that target") {
    val rng = new scala.util.Random(12)
    val xs = Array.fill(50)(Array(rng.nextDouble(), rng.nextDouble()))
    assert(root(xs, Array.fill(50)(2.5)) == Leaf(2.5))
  }

  test("a node with fewer than 2·minLeaf rows is a leaf") {
    val xs = Array.tabulate(7)(i => Array(i.toDouble))
    val ys = Array.tabulate(7)(i => if (i < 3) 0.0 else 1.0)
    assert(root(xs, ys, RegressionTree(minLeaf = 4)) == Leaf(ys.sum / ys.length))
  }

  test("a single row is a leaf at its target") {
    assert(root(Array(Array(1.0, 2.0)), Array(7.0)) == Leaf(7.0))
  }

  test("a two-valued column splits between its values") {
    val xs = Array.tabulate(40)(i => Array((i % 2).toDouble))
    val ys = xs.map(x => 10.0 * x(0) + 1.0)
    assert(root(xs, ys) == Split(0, 0.0, Leaf(1.0), Leaf(11.0)))
  }

  test("identical columns split on the lower feature index") {
    val rng = new scala.util.Random(13)
    val xs = Array.fill(200) { val v = rng.nextDouble(); Array(rng.nextDouble(), v, v) }
    val ys = xs.map(x => if (x(1) < 0.5) 0.0 else 1.0)
    root(xs, ys, RegressionTree(maxDepth = 1)) match {
      case Split(f, _, Leaf(l), Leaf(r)) => assert(f == 1 && l < r)
      case other                         => fail(s"expected one split, got $other")
    }
  }

  test("ensembles over constant features or a single row predict the mean") {
    val xs = Array.fill(30)(Array(1.0, 1.0))
    val ys = Array.fill(30)(4.0)
    assert(RandomForest(nTrees = 3).fit(xs, ys).predict(xs(0)) == 4.0)
    assert(FastTree(nTrees = 3).fit(xs, ys).predict(xs(0)) == 4.0)
    assert(FastTree(nTrees = 3).fit(Array(Array(0.0)), Array(1.0)).predict(Array(0.0)) == 1.0)
  }
}
