package repro.cleo

import org.apache.spark.sql.SparkSession
import repro.ml._
import repro.scopesim.OpSample

/** The CLEO training pipeline of Section 5.1: group logged operator samples
  * by each family's signature, train an elastic net per signature (in
  * parallel on Spark, like the paper's SCOPE-based parallel trainer), then
  * train the combined FastTree meta-model on a held-out slice.
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
    CostModel(elasticNet.fit(xs, ys), ss.length, ys.min, ys.max)
  }

  /** Trains one family's model map; Spark-parallel over signatures when a
    * session is supplied.
    */
  def trainFamily(
      samples: Seq[OpSample], family: Family, spark: Option[SparkSession] = None): Map[Long, CostModel] = {
    val gs = groups(samples, family).toSeq
    spark match {
      case Some(ss) if gs.size > 64 =>
        val slices = math.min(gs.size, ss.sparkContext.defaultParallelism * 4)
        ss.sparkContext
          .parallelize(gs, slices)
          .map { case (k, arr) => (k, fitOne(arr)) }
          .collect()
          .toMap
      case _ =>
        gs.map { case (k, arr) => (k, fitOne(arr)) }.toMap
    }
  }

  /** Trains the four individual families (no combined model yet). */
  def trainIndividuals(samples: Seq[OpSample], spark: Option[SparkSession] = None): CleoModelSet =
    CleoModelSet(
      sub = trainFamily(samples, Family.Subgraph, spark),
      approx = trainFamily(samples, Family.Approx, spark),
      input = trainFamily(samples, Family.Input, spark),
      operator = trainFamily(samples, Family.Operator, spark),
      combined = None,
    )

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
}
