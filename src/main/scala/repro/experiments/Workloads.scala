package repro.experiments

import repro.cleo._
import repro.scopesim._
import scala.collection.concurrent.TrieMap

/** Memoized workload generation and model training per simulated cluster, so
  * multiple benches in one JVM share the expensive artifacts.
  */
object Workloads {

  private val runsCache = TrieMap.empty[Int, Vector[JobRun]]
  private val samplesCache = TrieMap.empty[Int, Vector[OpSample]]
  private val trainedCache = TrieMap.empty[Int, CleoModelSet]

  def config(cluster: Int): ClusterConfig = WorkloadGen.cluster(cluster)

  def runs(cluster: Int): Vector[JobRun] =
    runsCache.getOrElseUpdate(cluster, WorkloadGen.genJobs(config(cluster)))

  def samples(cluster: Int): Vector[OpSample] =
    samplesCache.getOrElseUpdate(cluster, Logs.samples(runs(cluster), config(cluster).gtConfig))

  /** The deployed CLEO bundle for a cluster ([[Trainer.deploy]]). */
  def trained(cluster: Int): CleoModelSet =
    trainedCache.getOrElseUpdate(cluster, Trainer.deploy(samples(cluster)))

  def predictor(cluster: Int): CleoPredictor = new CleoPredictor(trained(cluster))

  def testDay(cluster: Int): Vector[OpSample] = samples(cluster).filter(_.day == 3)
}
