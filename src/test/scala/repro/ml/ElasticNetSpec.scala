package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.cleo.Trainer
import repro.core.{Features, OpStats}

class ElasticNetSpec extends AnyFunSuite {

  private def synthLinear(n: Int, w: Array[Double], b: Double, noise: Double, seed: Long) = {
    val rng = new scala.util.Random(seed)
    val xs = Array.fill(n)(Array.fill(w.length)(rng.nextDouble() * 10 - 5))
    val ys = xs.map(x => x.zip(w).map { case (xi, wi) => xi * wi }.sum + b + rng.nextGaussian() * noise)
    (xs, ys)
  }

  test("recovers a noiseless linear function") {
    val (xs, ys) = synthLinear(200, Array(2.0, -3.0, 0.5), 4.0, 0.0, 1)
    val m = ElasticNet(l1 = 1e-6, l2 = 1e-6).fit(xs, ys)
    val errs = xs.zip(ys).map { case (x, y) => math.abs(m.predict(x) - y) }
    assert(errs.max < 0.05, s"max abs err ${errs.max}")
  }

  test("tolerates gaussian noise") {
    val (xs, ys) = synthLinear(500, Array(1.0, 2.0), 0.0, 0.5, 2)
    val m = ElasticNet(l1 = 1e-4, l2 = 1e-4).fit(xs, ys)
    // A linear model's raw weight j is its prediction at e_j minus at 0.
    val at0 = m.predict(Array(0.0, 0.0))
    val w = Seq(Array(1.0, 0.0), Array(0.0, 1.0)).map(e => m.predict(e) - at0)
    assert(math.abs(w(0) - 1.0) < 0.15)
    assert(math.abs(w(1) - 2.0) < 0.15)
  }

  test("l1 drives irrelevant weights to exactly zero") {
    val rng = new scala.util.Random(3)
    val xs = Array.fill(300)(Array.fill(10)(rng.nextDouble() * 2 - 1))
    val ys = xs.map(x => 3.0 * x(0) + rng.nextGaussian() * 0.01)
    val m = ElasticNet(l1 = 0.05, l2 = 0.01).fit(xs, ys)
    val zeros = m.weights.drop(1).count(w => w == 0.0)
    assert(zeros >= 7, s"expected sparsity, weights=${m.weights.mkString(",")}")
    assert(m.weights(0) != 0.0)
  }

  test("strong regularization shrinks weights toward zero") {
    val (xs, ys) = synthLinear(200, Array(5.0), 0.0, 0.0, 4)
    val weak = ElasticNet(l1 = 1e-6, l2 = 1e-6).fit(xs, ys)
    val strong = ElasticNet(l1 = 2.0, l2 = 2.0).fit(xs, ys)
    assert(math.abs(strong.weights(0)) < math.abs(weak.weights(0)))
  }

  test("intercept-only data predicts the mean") {
    val xs = Array.fill(50)(Array(1.0, 2.0)) // constant features
    val ys = Array.tabulate(50)(i => if (i % 2 == 0) 10.0 else 20.0)
    val m = ElasticNet().fit(xs, ys)
    assert(math.abs(m.predict(Array(1.0, 2.0)) - 15.0) < 1e-9)
  }

  test("deterministic across runs") {
    val (xs, ys) = synthLinear(150, Array(1.0, 1.0, 1.0), 0.0, 0.3, 6)
    val a = ElasticNet(l1 = 0.01, l2 = 0.01).fit(xs, ys)
    val b = ElasticNet(l1 = 0.01, l2 = 0.01).fit(xs, ys)
    assert(a.weights.sameElements(b.weights) && a.intercept == b.intercept)
  }

  test("MAE gradient training fits a linear function approximately") {
    val (xs, ys) = synthLinear(200, Array(2.0, -1.0), 3.0, 0.1, 7)
    val m = ElasticNet(l1 = 1e-4, l2 = 1e-4, loss = Loss.MAE).fit(xs, ys)
    val med = Metrics.medianErrorPct(xs.map(m.predict).toSeq, ys.toSeq)
    assert(med < 25.0, s"median err $med%")
  }

  test("MedAE training is markedly worse than MSE on heavy-tailed targets") {
    val rng = new scala.util.Random(8)
    val xs = Array.fill(300)(Array(rng.nextDouble() * 10))
    val ys = xs.map(x => 5.0 * x(0) * math.exp(rng.nextGaussian() * 0.8) + 1.0)
    val mse = ElasticNet(l1 = 1e-4, l2 = 1e-4, loss = Loss.MSE).fit(xs, ys)
    val med = ElasticNet(l1 = 1e-4, l2 = 1e-4, loss = Loss.MedAE).fit(xs, ys)
    val eMse = Metrics.medianErrorPct(xs.map(mse.predict).toSeq, ys.toSeq)
    val eMed = Metrics.medianErrorPct(xs.map(med.predict).toSeq, ys.toSeq)
    assert(eMed > eMse * 0.7, s"MedAE=$eMed MSE=$eMse")
    assert(eMed.isFinite && eMse.isFinite)
  }

  test("log-space wrapper keeps predictions positive") {
    val rng = new scala.util.Random(9)
    val xs = Array.fill(100)(Array(rng.nextDouble() * 100))
    val ys = xs.map(x => 0.01 * x(0) + 0.1)
    val m = LogSpaceTrainer(ElasticNet()).fit(xs, ys)
    for (x <- Seq(Array(-500.0), Array(0.0), Array(1000.0)))
      assert(m.predict(x) >= 0.0)
  }

  test("a learned cost model and the log-space wrapper clamp alike") {
    val rng = new scala.util.Random(11)
    val xs = Array.fill(100)(Array(rng.nextDouble() * 100))
    val ys = xs.map(x => 0.01 * x(0) + 0.1)
    val logYs = ys.map(math.log1p)
    val cost = repro.cleo.CostModel(ElasticNet().fit(xs, logYs), logYs.min, logYs.max)
    val wrapped = LogSpaceTrainer(ElasticNet()).fit(xs, ys)
    for (x <- Seq(Array(-1e6), Array(0.0), Array(50.0), Array(1e6)))
      assert(cost.predictCost(x) == wrapped.predict(x))
    assert(wrapped.predict(Array(1e6)) == math.expm1(logYs.max + 1.5))
    assert(wrapped.predict(Array(-1e6)) == math.max(0.0, math.expm1(logYs.min - 1.5)))
  }

  test("rejects empty training sets") {
    intercept[IllegalArgumentException] {
      ElasticNet().fit(Array.empty[Array[Double]], Array.empty[Double])
    }
  }

  /** A real feature vector: B·C is ~1e16, so the column means round. */
  private val bigRow = Features.vector(OpStats(3e7, 4.1e8, 2.9e7, 117.0, 250.0, 0x5eedL, 1.7, 6, 3))

  test("a minimum-size group with constant features fits zero weights and the mean") {
    val ys = Array.tabulate(Trainer.MinOccurrences)(i => 0.3 + 1.7 * i * i)
    val m = Trainer.elasticNet.fit(Array.fill(ys.length)(bigRow.clone), ys)
    assert(m.weights.forall(_ == 0.0), m.weights.mkString(","))
    assert(m.intercept == ys.sum / ys.length)
  }

  test("a one-row fit gives finite output") {
    val m = Trainer.elasticNet.fit(Array(bigRow), Array(4.2))
    assert(m.weights.forall(_.isFinite) && m.intercept.isFinite)
    for (x <- Seq(bigRow, bigRow.map(_ * 1e3), Array.fill(bigRow.length)(0.0)))
      assert(m.predict(x).isFinite)
  }

  test("single-sample training degenerates to a constant") {
    val m = ElasticNet().fit(Array(Array(1.0, 2.0)), Array(7.0))
    assert(math.abs(m.predict(Array(9.0, 9.0)) - 7.0) < 1e-9)
  }
}
