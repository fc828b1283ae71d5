package repro.props

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll
import repro.core.{Features, OpStats}
import repro.cleo.Trainer
import repro.ml.{ElasticNetModel, Metrics, RowSweepElasticNet, Standardizer}
import repro.scopesim.Determ

/** ScalaCheck property suites (run natively by sbt's scalacheck framework). */
object DetermProps extends Properties("Determ") {
  property("mix is a function") = forAll { (x: Long) => Determ.mix(x) == Determ.mix(x) }
  property("uniform in [0,1)") = forAll { (x: Long) =>
    val u = Determ.uniform(x); u >= 0.0 && u < 1.0
  }
  property("gauss is finite") = forAll { (x: Long) =>
    val g = Determ.gauss(x); !g.isNaN && !g.isInfinite
  }
  property("lognormal positive") = forAll(Gen.choose(-1000000L, 1000000L), Gen.choose(0.0, 2.0)) {
    (seed, sigma) => Determ.lognormal(seed, sigma) > 0.0
  }
  property("hashStr distinguishes appended char") = forAll(Gen.alphaNumStr) { s =>
    Determ.hashStr(s) != Determ.hashStr(s + "x")
  }
}

object FeaturesProps extends Properties("Features") {
  private val statsGen: Gen[OpStats] = for {
    i <- Gen.choose(1.0, 1e9)
    b <- Gen.choose(1.0, 1e9)
    c <- Gen.choose(1.0, 1e9)
    l <- Gen.choose(8.0, 512.0)
    p <- Gen.choose(1.0, 3000.0)
    h <- Gen.choose(Long.MinValue, Long.MaxValue)
    pm <- Gen.choose(0.1, 10.0)
    cl <- Gen.choose(1, 50)
    d <- Gen.choose(1, 30)
  } yield OpStats(i, b, c, l, p, h, pm, cl, d)

  private val pSlot = Features.names.indexOf("P")
  private val perPSlots = Features.names.indices.filter(Features.names(_).endsWith("/P"))

  property("vector has fixed dimension and finite entries") = forAll(statsGen) { s =>
    val v = Features.vector(s)
    v.length == Features.dim && v.forall(x => !x.isNaN && !x.isInfinite)
  }
  property("P feature equals stats.p (clamped)") = forAll(statsGen) { s =>
    Features.vector(s)(pSlot) == math.max(1.0, s.p)
  }
  property("invP features scale as 1/P") = forAll(statsGen) { s =>
    val v1 = Features.vector(s.withPartitions(10))
    val v2 = Features.vector(s.withPartitions(20))
    perPSlots.nonEmpty && perPSlots.forall(j => math.abs(v1(j) - 2.0 * v2(j)) <= 1e-6 * math.abs(v1(j)) + 1e-12)
  }
}

object MetricsProps extends Properties("Metrics") {
  private val vecGen = Gen.nonEmptyListOf(Gen.choose(0.1, 1e6))
  property("pearson bounded") = forAll(vecGen, vecGen) { (a0, b0) =>
    val n = math.min(a0.size, b0.size)
    val (a, b) = (a0.take(n).map(_.toDouble), b0.take(n).map(_.toDouble))
    val c = Metrics.pearson(a, b)
    c >= -1.0 - 1e-9 && c <= 1.0 + 1e-9
  }
  property("self correlation is 1 for non-constant series") = forAll(vecGen) { a =>
    a.distinct.size < 2 || math.abs(Metrics.pearson(a, a) - 1.0) < 1e-9
  }
  property("median error non-negative") = forAll(vecGen, vecGen) { (a0, b0) =>
    val n = math.min(a0.size, b0.size)
    Metrics.medianErrorPct(a0.take(n), b0.take(n)) >= 0.0
  }
  property("p95 >= median error") = forAll(vecGen, vecGen) { (a0, b0) =>
    val n = math.min(a0.size, b0.size)
    val (a, b) = (a0.take(n), b0.take(n))
    Metrics.p95ErrorPct(a, b) >= Metrics.medianErrorPct(a, b) - 1e-9
  }
}

object StandardizerProps extends Properties("Standardizer") {
  private val rowsGen: Gen[List[List[Double]]] = for {
    d <- Gen.choose(1, 6)
    n <- Gen.choose(2, 60)
    rows <- Gen.listOfN(n, Gen.listOfN(d, Gen.choose(-1e6, 1e6)))
  } yield rows
  property("transform produces finite values") = forAll(rowsGen) { rows =>
    val xs = rows.map(_.toArray).toArray
    val sc = Standardizer.fit(xs)
    xs.forall(x => sc.transform(x).forall(v => !v.isNaN && !v.isInfinite))
  }
  property("columns keep ordering") = forAll(rowsGen) { rows =>
    val xs = rows.map(_.toArray).toArray
    val sc = Standardizer.fit(xs)
    val j = 0
    val orig = xs.map(_(j))
    val trans = xs.map(x => sc.transform(x)(j))
    orig.indices.forall { i =>
      orig.indices.forall { k =>
        !(orig(i) < orig(k)) || trans(i) <= trans(k) + 1e-9
      }
    }
  }
}

object ElasticNetProps extends Properties("ElasticNet") {

  /** Designs of 1–40 rows and 1–8 non-negative columns at magnitudes up to
    * 1e16 (as B·C reaches), some columns constant and some copies of an
    * earlier one; targets in the range of log1p costs.
    */
  private val designGen: Gen[(Array[Array[Double]], Array[Double])] = for {
    n <- Gen.choose(1, 40)
    d <- Gen.choose(1, 8)
    kinds <- Gen.listOfN(d, Gen.frequency(3 -> "varied", 1 -> "constant", 1 -> "copy"))
    sources <- Gen.listOfN(d, Gen.choose(0, 7))
    scales <- Gen.listOfN(d, Gen.choose(0, 16).map(e => math.pow(10.0, e.toDouble)))
    cells <- Gen.listOfN(n * d, Gen.choose(0.0, 1.0))
    ys <- Gen.listOfN(n, Gen.choose(0.0, 30.0))
  } yield {
    val cols = Array.ofDim[Double](d, n)
    for (j <- 0 until d) cols(j) = kinds(j) match {
      case "copy" if j > 0 => cols(sources(j) % j)
      case "constant"      => Array.fill(n)(scales(j) * cells(j))
      case _               => Array.tabulate(n)(i => scales(j) * cells(i * d + j))
    }
    (Array.tabulate(n, d)((i, j) => cols(j)(i)), ys.toArray)
  }

  private val en = Trainer.elasticNet

  /** ½·MSE + l1·|w| + ½·l2·w² of a fit, in its standardized space. */
  private def objective(m: ElasticNetModel, xs: Array[Array[Double]], ys: Array[Double]): Double = {
    val mse = xs.indices.map(i => math.pow(ys(i) - m.predict(xs(i)), 2)).sum / xs.length
    0.5 * mse + en.l1 * m.weights.map(math.abs).sum + 0.5 * en.l2 * m.weights.map(w => w * w).sum
  }

  property("covariance updates reach the row sweep's objective; constant columns get weight 0") =
    forAll(designGen) { case (xs, ys) =>
      val (got, want) = (en.fit(xs, ys), RowSweepElasticNet.fit(en, xs, ys))
      val finite = Seq(got, want).forall(m => m.intercept.isFinite && m.weights.forall(_.isFinite))
      val constant = xs(0).indices.filter(j => xs.forall(_(j) == xs(0)(j)))
      val (oGot, oWant) = (objective(got, xs, ys), objective(want, xs, ys))
      finite && constant.forall(j => got.weights(j) == 0.0 && want.weights(j) == 0.0) &&
        math.abs(oGot - oWant) <= 1e-9 * (1.0 + oWant)
    }
}
