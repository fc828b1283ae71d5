package repro.cleo

import repro.ml._
import repro.scopesim.OpSample
import scala.collection.parallel.CollectionConverters._

/** The CLEO training pipeline of Section 5.1: group logged operator samples
  * by each family's signature, train an elastic net per signature (one
  * data-parallel map over the independent signature groups, like the paper's
  * SCOPE-based parallel trainer), then train the combined FastTree meta-model
  * on a held-out slice.
  */
object Trainer {

  /** Minimum occurrences for a specialized model to exist (Section 4.1). */
  val MinOccurrences = 5

  /** The individual-model learner: elastic net on log1p targets ≡ MSLE. */
  def elasticNet: ElasticNet = ElasticNet(l1 = 0.003, l2 = 0.01)

  /** The combined-model learner (Section 4.3 hyperparameters). */
  def fastTree: FastTree = FastTree(nTrees = 20, maxDepth = 5, subsample = 0.9)

  def groups(samples: Seq[OpSample], family: Family, minN: Int = MinOccurrences): Map[Long, Array[OpSample]] =
    samples.groupBy(family.key).collect {
      case (k, ss) if ss.size >= minN => k -> ss.toArray
    }

  private def fitOne(ss: Array[OpSample]): CostModel = {
    val xs = ss.map(_.features)
    val ys = ss.map(s => math.log1p(math.max(0.0, s.actual)))
    CostModel(elasticNet.fit(xs, ys), ys.min, ys.max)
  }

  /** Trains one family's model map. Each signature's model depends only on
    * its own group and the learner shares no mutable state, so the groups are
    * fit concurrently.
    */
  def trainFamily(samples: Seq[OpSample], family: Family): Map[Long, CostModel] =
    groups(samples, family).toVector.par.map { case (k, arr) => (k, fitOne(arr)) }.seq.toMap

  /** Trains the four individual families (no combined model yet). */
  def trainIndividuals(samples: Seq[OpSample]): CleoModelSet =
    CleoModelSet(Family.all.map(f => f -> trainFamily(samples, f)).toMap, combined = None)

  /** Trains the FastTree meta-model on `metaSamples` (a day held out from the
    * individual models' training window, Section 5.1) and returns the full set.
    */
  def withCombined(set: CleoModelSet, metaSamples: Seq[OpSample],
                   trainer: Trainer = fastTree): CleoModelSet = {
    val xs = metaSamples.map(set.metaFeatures).toArray
    val ys = metaSamples.map(s => math.max(0.0, s.actual)).toArray
    val meta = LogSpaceTrainer(trainer).fit(xs, ys)
    set.copy(combined = Some(meta))
  }

  /** The deployed bundle of the Section 5.1 protocol, stacked so the combined
    * model never sees its own training rows through the individual models:
    * individual models on day 1, the combined model trained on day-2 samples
    * against them, then individual models on days 1-2 under that combined
    * model. Later days stay untouched for testing.
    */
  def deploy(samples: Seq[OpSample]): CleoModelSet = {
    val stacked = withCombined(trainIndividuals(samples.filter(_.day == 1)), samples.filter(_.day == 2))
    trainIndividuals(samples.filter(_.day <= 2)).copy(combined = stacked.combined)
  }
}
