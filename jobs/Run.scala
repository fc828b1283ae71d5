package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments._

/** Prints the named simulator tables in the order given, e.g.
  * `Run table5 partitions`; [[Tables.all]] holds the names. Every name is
  * checked before any table is built.
  */
object Run {
  def main(args: Array[String]): Unit = {
    val byName = Tables.all.toMap
    require(args.nonEmpty && args.forall(byName.contains),
      s"unknown or missing table name in [${args.mkString(" ")}]; valid names: ${Tables.all.map(_._1).mkString(", ")}")
    args.foreach(name => println(byName(name)().render))
  }
}

/** §6.6.2 — TPC-H-lite on real Spark through the Catalyst retrofit. */
object TpchJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("cleo-tpch")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val sf = args.headOption.map(_.toDouble).getOrElse(0.05)
      println(TpchExperiment.table(TpchExperiment.run(spark, sf, oracleSf = 0.005)).render)
    } finally spark.stop()
  }
}
