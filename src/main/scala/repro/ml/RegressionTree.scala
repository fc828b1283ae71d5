package repro.ml

/** CART-style regression tree with variance-reduction splits.
  *
  * Candidate thresholds are node sample values at quantile ranks: with a
  * node's m values of a feature sorted, the values at ranks `(b*(m-1))/Bins`
  * for `b` in `1 until Bins`, distinct and ascending. A split sends rows with
  * `x(f) <= threshold` left. At most `Bins - 1` candidates per feature keep
  * depth-15 trees (the paper's decision-tree setting) fast, and are exact
  * enough for cost-model data.
  *
  * The search over those candidates is exact and presorted, as in SLIQ
  * (Mehta et al., EDBT 1996): `fit` copies the design matrix into columns and
  * sorts each feature's rows once, and every split keeps those orders with a
  * stable partition. A node's rows are then already in value order for every
  * feature: one sweep per feature sums count, Σy and Σy² between consecutive
  * candidates, and each threshold's gain follows from prefix and suffix sums of
  * those buckets.
  *
  * Ties: a split replaces the best one so far only if its gain exceeds the
  * best by more than [[TieTolerance]] of it. Equal gains, such as those of
  * duplicated or equivalent columns, can differ in their last bits when their
  * sums are taken in different orders; with the margin they resolve to the
  * first split in feature order, then in threshold order.
  */
object RegressionTree {

  /** Quantile ranks per feature; their values are the split candidates. */
  val Bins = 32

  /** Relative margin by which a gain must beat the best one to replace it. */
  val TieTolerance = 1e-9

  sealed trait Node extends Serializable
  final case class Leaf(value: Double) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  final case class Model(root: Node) extends Regressor {
    override def predict(x: Array[Double]): Double = {
      var n = root
      while (true) {
        n match {
          case Leaf(v)                => return v
          case Split(f, t, l, r)      => n = if (x(f) <= t) l else r
        }
      }
      0.0 // unreachable
    }
  }
}

final case class RegressionTree(
    maxDepth: Int = 15,
    minLeaf: Int = 2,
    /** If set, consider only this many randomly chosen features per split (for forests). */
    featureSubset: Option[Int] = None,
    seed: Long = 17,
) extends Trainer {
  import RegressionTree._

  override def fit(xs: Array[Array[Double]], ys: Array[Double]): Model = {
    require(xs.nonEmpty, "empty training set")
    Model(new Builder(xs, ys, new scala.util.Random(seed)).build(0, xs.length, 0))
  }

  /** One fit's working set. A node is a range `[lo, hi)` that is the same in
    * `rows` and in every feature's `order`.
    */
  private final class Builder(xs: Array[Array[Double]], ys: Array[Double], rng: scala.util.Random) {
    private val n = xs.length
    private val d = xs(0).length
    private val cols = Array.tabulate(d) { f =>
      val c = new Array[Double](n)
      var i = 0
      while (i < n) { c(i) = xs(i)(f); i += 1 }
      c
    }
    /** Per feature, the rows in ascending value order within each node. */
    private val order = cols.map(sortedRows)
    /** The rows in input order within each node, so that leaf means sum as a
      * plain pass over the node's rows would.
      */
    private val rows = Array.range(0, n)
    private val goesLeft = new Array[Boolean](n)
    private val spill = new Array[Int](n)
    // Per feature of a node: candidates, and per bucket (rows above candidate
    // c-1 and at most candidate c; the last bucket is above every candidate)
    // its count and sums, and the sums over the buckets after it.
    private val cand = new Array[Double](Bins)
    private val cnt = new Array[Int](Bins)
    private val sy = new Array[Double](Bins)
    private val syy = new Array[Double](Bins)
    private val rSy = new Array[Double](Bins)
    private val rSyy = new Array[Double](Bins)

    /** Rows of `col` sorted by value (`java.lang.Double` order), ties by row. */
    private def sortedRows(col: Array[Double]): Array[Int] = {
      val sorted = col.clone()
      java.util.Arrays.sort(sorted)
      // next(p): the next free slot of the run of equal values starting at p.
      val next = Array.range(0, n)
      val out = new Array[Int](n)
      var r = 0
      while (r < n) {
        val v = col(r)
        var a = 0; var b = n
        while (a < b) {
          val mid = (a + b) >>> 1
          if (java.lang.Double.compare(sorted(mid), v) < 0) a = mid + 1 else b = mid
        }
        out(next(a)) = r
        next(a) += 1
        r += 1
      }
      out
    }

    private def mean(lo: Int, hi: Int): Double = {
      var s = 0.0; var i = lo
      while (i < hi) { s += ys(rows(i)); i += 1 }
      s / (hi - lo)
    }

    private def sse(lo: Int, hi: Int): Double = {
      val m = mean(lo, hi)
      var s = 0.0; var i = lo
      while (i < hi) { val e = ys(rows(i)) - m; s += e * e; i += 1 }
      s
    }

    /** Moves `a(lo until hi)`'s left-going rows before its right-going ones,
      * each side in its old order; returns how many go left.
      */
    private def partition(a: Array[Int], lo: Int, hi: Int): Int = {
      var w = lo; var nr = 0; var i = lo
      while (i < hi) {
        val r = a(i)
        if (goesLeft(r)) { a(w) = r; w += 1 } else { spill(nr) = r; nr += 1 }
        i += 1
      }
      System.arraycopy(spill, 0, a, w, nr)
      w - lo
    }

    def build(lo: Int, hi: Int, depth: Int): Node = {
      val m = hi - lo
      if (depth >= maxDepth || m < 2 * minLeaf) return Leaf(mean(lo, hi))
      val parentSse = sse(lo, hi)
      if (parentSse < 1e-12) return Leaf(mean(lo, hi))

      val feats: Array[Int] = featureSubset match {
        case Some(k) if k < d => rng.shuffle((0 until d).toList).take(k).toArray
        case _                => (0 until d).toArray
      }

      var bestGain = 0.0
      var bestFeat = -1
      var bestThr = 0.0
      for (f <- feats) {
        val col = cols(f); val ord = order(f)
        var k = 0; var b = 1
        while (b < Bins) {
          val v = col(ord(lo + (b * (m - 1)) / Bins))
          if (k == 0 || v != cand(k - 1)) { cand(k) = v; k += 1 }
          b += 1
        }
        java.util.Arrays.fill(cnt, 0, k + 1, 0)
        java.util.Arrays.fill(sy, 0, k + 1, 0.0)
        java.util.Arrays.fill(syy, 0, k + 1, 0.0)
        var c = 0; var i = lo
        while (i < hi) {
          val r = ord(i)
          val v = col(r)
          while (c < k && !(v <= cand(c))) c += 1
          val y = ys(r)
          cnt(c) += 1; sy(c) += y; syy(c) += y * y
          i += 1
        }
        // Threshold cand(j) sends buckets 0..j left and j+1..k right.
        var rs = 0.0; var rss = 0.0
        var j = k - 1
        while (j >= 0) {
          rs += sy(j + 1); rss += syy(j + 1)
          rSy(j) = rs; rSyy(j) = rss
          j -= 1
        }
        var ln = 0; var ls = 0.0; var lss = 0.0
        j = 0
        while (j < k) {
          ln += cnt(j); ls += sy(j); lss += syy(j)
          val rn = m - ln
          if (ln >= minLeaf && rn >= minLeaf) {
            val childSse = (lss - ls * ls / ln) + (rSyy(j) - rSy(j) * rSy(j) / rn)
            val gain = parentSse - childSse
            if (gain > bestGain + TieTolerance * math.abs(bestGain)) {
              bestGain = gain; bestFeat = f; bestThr = cand(j)
            }
          }
          j += 1
        }
      }
      if (bestFeat < 0) return Leaf(mean(lo, hi))

      val col = cols(bestFeat)
      var i = lo
      while (i < hi) { val r = rows(i); goesLeft(r) = col(r) <= bestThr; i += 1 }
      val nl = partition(rows, lo, hi)
      order.foreach(partition(_, lo, hi))
      Split(bestFeat, bestThr, build(lo, lo + nl, depth + 1), build(lo + nl, hi, depth + 1))
    }
  }
}
