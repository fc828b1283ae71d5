package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class CrossValidationSpec extends AnyFunSuite {

  test("fold assignment is balanced") {
    val folds = CrossValidation.foldAssignment(100, 5, 1)
    val counts = folds.groupBy(identity).view.mapValues(_.length).toMap
    assert(counts.size == 5)
    assert(counts.values.forall(_ == 20))
  }

  test("fold assignment deterministic per seed") {
    assert(CrossValidation.foldAssignment(50, 5, 9).sameElements(CrossValidation.foldAssignment(50, 5, 9)))
  }

  test("out-of-fold covers every sample exactly once") {
    val rng = new scala.util.Random(2)
    val xs = Array.fill(60)(Array(rng.nextDouble()))
    val ys = xs.map(x => 2 * x(0) + 1)
    val pairs = CrossValidation.outOfFold(xs, ys, ElasticNet())
    assert(pairs.size == 60)
    assert(pairs.map(_._2).sorted == ys.toSeq.sorted)
  }

  test("out-of-fold predictions on an easy function are accurate") {
    val rng = new scala.util.Random(3)
    val xs = Array.fill(80)(Array(rng.nextDouble() * 10))
    val ys = xs.map(x => 3 * x(0) + 5)
    val pairs = CrossValidation.outOfFold(xs, ys, ElasticNet(l1 = 1e-5, l2 = 1e-5))
    assert(Metrics.medianErrorPct(pairs.map(_._1), pairs.map(_._2)) < 5.0)
  }

  test("too-small sets return no pairs") {
    assert(CrossValidation.outOfFold(Array(Array(1.0)), Array(1.0), ElasticNet()).isEmpty)
  }
}
