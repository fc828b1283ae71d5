package repro.ml

/** Small feed-forward neural network: ReLU hidden layers, Adam optimizer,
  * L2 regularization (paper setting: hidden size 30, relu, adam, l2=0.005).
  * Inputs are standardized internally; targets are fit as-is (wrap with
  * [[LogSpaceTrainer]] for MSLE).
  */
final case class MLP(
    hidden: Array[Int] = Array(30, 30),
    epochs: Int = 200,
    batch: Int = 32,
    seed: Long = 41,
) extends Trainer {
  import MLP._

  override def fit(xs: Array[Array[Double]], ys: Array[Double]): Regressor = {
    require(xs.nonEmpty, "empty training set")
    val rng = new scala.util.Random(seed)
    val scaler = Standardizer.fit(xs)
    val z = xs.map(scaler.transform)
    val n = z.length
    val yMean = ys.sum / n
    val yStd = math.max(1e-9, math.sqrt(ys.map(y => (y - yMean) * (y - yMean)).sum / n))
    val t = ys.map(y => (y - yMean) / yStd)

    val sizes = (z(0).length +: hidden) :+ 1
    val L = sizes.length - 1
    def init(rows: Int, cols: Int): Array[Array[Double]] = {
      val lim = math.sqrt(6.0 / (rows + cols))
      Array.fill(rows, cols)((rng.nextDouble() * 2 - 1) * lim)
    }
    val ws = Array.tabulate(L)(l => init(sizes(l + 1), sizes(l)))
    val bs = Array.tabulate(L)(l => new Array[Double](sizes(l + 1)))
    // Adam state
    val mw = ws.map(_.map(_.map(_ => 0.0)))
    val vw = ws.map(_.map(_.map(_ => 0.0)))
    val mb = bs.map(_.map(_ => 0.0))
    val vb = bs.map(_.map(_ => 0.0))
    val (b1, b2, eps) = (0.9, 0.999, 1e-8)
    var step = 0

    val order = (0 until n).toArray
    var e = 0
    while (e < epochs) {
      // shuffle
      var i = n - 1
      while (i > 0) { val j = rng.nextInt(i + 1); val tmp = order(i); order(i) = order(j); order(j) = tmp; i -= 1 }
      var start = 0
      while (start < n) {
        val end = math.min(n, start + batch)
        val gw = ws.map(_.map(_.map(_ => 0.0)))
        val gb = bs.map(_.map(_ => 0.0))
        var k = start
        while (k < end) {
          val idx = order(k)
          val acts = forward(ws, bs, z(idx))
          // backward (squared loss)
          var delta = Array(2.0 * (acts(L)(0) - t(idx)))
          var l = L - 1
          while (l >= 0) {
            val w = ws(l)
            val gwl = gw(l); val gbl = gb(l)
            var o = 0
            while (o < delta.length) {
              val dlt = delta(o)
              gbl(o) += dlt
              val row = gwl(o); val a = acts(l)
              var q = 0
              while (q < row.length) { row(q) += dlt * a(q); q += 1 }
              o += 1
            }
            if (l > 0) {
              val nd = new Array[Double](w(0).length)
              var q = 0
              while (q < nd.length) {
                var s = 0.0; var o2 = 0
                while (o2 < delta.length) { s += ws(l)(o2)(q) * delta(o2); o2 += 1 }
                nd(q) = if (acts(l)(q) > 0) s else 0.0 // ReLU'
                q += 1
              }
              delta = nd
            }
            l -= 1
          }
          k += 1
        }
        // Adam update
        step += 1
        val bsz = (end - start).toDouble
        val corr1 = 1 - math.pow(b1, step)
        val corr2 = 1 - math.pow(b2, step)
        var l = 0
        while (l < L) {
          var o = 0
          while (o < ws(l).length) {
            var q = 0
            while (q < ws(l)(o).length) {
              val g = gw(l)(o)(q) / bsz + L2 * ws(l)(o)(q)
              mw(l)(o)(q) = b1 * mw(l)(o)(q) + (1 - b1) * g
              vw(l)(o)(q) = b2 * vw(l)(o)(q) + (1 - b2) * g * g
              ws(l)(o)(q) -= LearningRate * (mw(l)(o)(q) / corr1) / (math.sqrt(vw(l)(o)(q) / corr2) + eps)
              q += 1
            }
            val g = gb(l)(o) / bsz
            mb(l)(o) = b1 * mb(l)(o) + (1 - b1) * g
            vb(l)(o) = b2 * vb(l)(o) + (1 - b2) * g * g
            bs(l)(o) -= LearningRate * (mb(l)(o) / corr1) / (math.sqrt(vb(l)(o) / corr2) + eps)
            o += 1
          }
          l += 1
        }
        start = end
      }
      e += 1
    }
    Model(ws, bs, scaler, yMean, yStd)
  }
}

object MLP {

  private val LearningRate = 1e-2
  private val L2 = 0.005

  final case class Model(
      ws: Array[Array[Array[Double]]], // layer -> out -> in
      bs: Array[Array[Double]],
      scaler: Standardizer,
      yMean: Double, yStd: Double,
  ) extends Regressor {
    override def predict(x: Array[Double]): Double =
      forward(ws, bs, scaler.transform(x))(ws.length)(0) * yStd + yMean
  }

  /** Every layer's activations for one standardized input, `input` first;
    * ReLU on all but the last (linear) layer.
    */
  private def forward(ws: Array[Array[Array[Double]]], bs: Array[Array[Double]],
                      input: Array[Double]): Array[Array[Double]] = {
    val acts = new Array[Array[Double]](ws.length + 1)
    acts(0) = input
    var l = 0
    while (l < ws.length) {
      val w = ws(l); val b = bs(l); val a = acts(l)
      val out = new Array[Double](w.length)
      var o = 0
      while (o < w.length) {
        var s = b(o); val row = w(o); var i = 0
        while (i < row.length) { s += row(i) * a(i); i += 1 }
        out(o) = if (l < ws.length - 1 && s < 0) 0.0 else s
        o += 1
      }
      acts(l + 1) = out
      l += 1
    }
    acts
  }
}
