package repro.cleo

import repro.core.{Features, OpStats}
import repro.ml.{ElasticNetModel, LogSpaceTrainer, Regressor}
import repro.scopesim.{DefaultPartitioner, OpSample, Phys, Signatures}

/** One trained individual cost model: an elastic net fit on `log1p(actual)`
  * (≡ MSLE, Section 3.2). The analytical partition exploration (Section 5.3)
  * reads its (θP, θC) from probes of the model's predictions ([[theta]]).
  *
  * Predictions in log space are clamped to the training-target range ± a
  * margin ([[LogSpaceTrainer.fromLog]]): a linear model extrapolating on huge
  * raw features (B·C ~ 1e16) can otherwise explode through `expm1` on
  * drifted inputs, which would let a handful of runaway predictions dominate
  * Pearson correlation.
  */
final case class CostModel(net: ElasticNetModel, zMin: Double, zMax: Double)
    extends Serializable {
  def predictCost(x: Array[Double]): Double = LogSpaceTrainer.fromLog(net.predict(x), zMin, zMax)

  /** (θP, θC) of `cost ≈ a + θP/P + θC·P` at the given statistics.
    *
    * Section 5.3 reads θ off the model's coefficients. Our individual models
    * predict in log space (MSLE), where the raw `1/P` and `P` coefficients
    * are not directly the θ of the raw-space cost, so we recover them the
    * numerically stable way: probe the model's predicted cost at a handful
    * of partition counts around the current one and least-squares fit the
    * analytical form. This keeps the look-up count at O(1) per operator —
    * the efficiency argument of the paper's analytical strategy survives
    * (5 probes ≪ the 20+ samples of the sampling strategy).
    */
  def theta(s: OpStats): (Double, Double) = {
    val p0 = math.max(1.0, s.p)
    val probes = Seq(p0 / 4, p0 / 2, p0, p0 * 2, p0 * 4)
      .map(p => math.max(1.0, math.min(DefaultPartitioner.MaxPartitions.toDouble, p))).distinct
    if (probes.size < 3) return (0.0, 0.0)
    val rows = probes.map { p =>
      (Array(1.0, 1.0 / p, p), predictCost(Features.vector(s.withPartitions(p))))
    }
    repro.ml.SmallSolve.lsq3(rows) match {
      case Some(w) => (w(1), w(2))
      case None    => (0.0, 0.0)
    }
  }
}

/** The full CLEO model bundle: one signature-keyed model map per family plus
  * the combined FastTree meta-model (Section 4.3).
  */
final case class CleoModelSet(
    models: Map[Family, Map[Long, CostModel]],
    combined: Option[Regressor],
) extends Serializable {

  def familyMap(f: Family): Map[Long, CostModel] = models(f)

  def covers(f: Family, s: OpSample): Boolean = familyMap(f).contains(f.key(s))

  def predictFamily(f: Family, s: OpSample): Option[Double] =
    familyMap(f).get(f.key(s)).map(_.predictCost(s.features))

  /** The most specialized individual model covering `s`, if any. */
  def modelFor(s: OpSample): Option[CostModel] =
    Family.all.iterator.flatMap(f => familyMap(f).get(f.key(s))).nextOption()

  /** Meta-features of the combined model: the individual predictions (log
    * scale) with presence indicators, plus cardinalities, per-partition
    * cardinalities and the partition count (Section 4.3).
    */
  def metaFeatures(s: OpSample): Array[Double] = {
    val x = s.features
    def pred(f: Family): (Double, Double) =
      familyMap(f).get(f.key(s)) match {
        case Some(m) => (math.log1p(m.predictCost(x)), 1.0)
        case None    => (0.0, 0.0)
      }
    val (ps, hs) = pred(Family.Subgraph)
    val (pa, ha) = pred(Family.Approx)
    val (pi, hi) = pred(Family.Input)
    val (po, _)  = pred(Family.Operator)
    val st = s.stats
    val p = math.max(1.0, st.p)
    Array(ps, hs, pa, ha, pi, hi, po,
      st.i, st.b, st.c, st.i / p, st.b / p, st.c / p, p)
  }

  /** Best available prediction: combined model when trained, otherwise the
    * most specialized covering family (the strawman cascade).
    */
  def predict(s: OpSample): Double = combined match {
    case Some(meta) => math.max(0.0, meta.predict(metaFeatures(s)))
    case None       => modelFor(s).map(_.predictCost(s.features)).getOrElse(0.0)
  }
}

/** Cost predictions for physical plan nodes during optimization — the
  * `Optimize Inputs` replacement of Figure 8a, step 10.
  */
class CleoPredictor(val set: CleoModelSet) extends Serializable {

  /** Pseudo log-record for a candidate operator (costs are being *predicted*,
    * so runtime fields are unused zeros). It is the whole input of both the
    * cost prediction and θ.
    */
  def asSample(n: Phys): OpSample = OpSample(
    cluster = 0, day = 0, jobId = 0, templateId = 0, adhoc = false,
    op = n.op.name,
    sigSub = Signatures.subgraph(n), sigApprox = Signatures.approx(n),
    sigInput = Signatures.inputSig(n),
    stats = n.stats, trueI = 0, trueC = 0, actual = 0, defaultCost = 0)

  def exclusiveCost(n: Phys): Double = costOf(asSample(n))

  def jobCost(root: Phys): Double = root.allNodes.map(exclusiveCost).sum

  /** Most specialized individual model covering this operator, if any. */
  def individualModel(n: Phys): Option[CostModel] = set.modelFor(asSample(n))

  /** (θP, θC) for partition exploration from the most specialized covering
    * individual model (falls back to the operator model, which always exists
    * once trained).
    */
  def theta(n: Phys): (Double, Double) = thetaOf(asSample(n))

  /** A predictor over the same models that computes each distinct operator
    * sample's cost and θ once. Its memo lives as long as the returned object
    * and is not thread-safe: open one per optimize call and drop it after.
    */
  def memoized(): CleoPredictor = new CleoPredictor.Memoized(set)

  protected def costOf(s: OpSample): Double = set.predict(s)

  protected def thetaOf(s: OpSample): (Double, Double) =
    set.modelFor(s).map(_.theta(s.stats)).getOrElse((0.0, 0.0))
}

object CleoPredictor {

  /** Keyed by the full [[OpSample]], not by a signature alone: two nodes of
    * one template can share a subgraph signature yet differ in cards or
    * partition count, so a hit always returns what a fresh computation would.
    */
  private final class Memoized(set: CleoModelSet) extends CleoPredictor(set) {
    private val costs = scala.collection.mutable.HashMap.empty[OpSample, Double]
    private val thetas = scala.collection.mutable.HashMap.empty[OpSample, (Double, Double)]
    override protected def costOf(s: OpSample): Double = costs.getOrElseUpdate(s, super.costOf(s))
    override protected def thetaOf(s: OpSample): (Double, Double) = thetas.getOrElseUpdate(s, super.thetaOf(s))
  }
}
