package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Command-line options of one benchmark run. */
final case class Opts(
    workload: String,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    tiny: Boolean,
    fault: Boolean,
    outDir: java.nio.file.Path,
)

/** Everything one run reports: operation counts, the failures behind them,
  * metrics (name -> value, unit), the determinism fingerprints, and free-form
  * facts such as sample counts.
  */
final class Report {
  var attempted = 0L
  val failures = mutable.ArrayBuffer.empty[String]
  val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  val fingerprints = mutable.LinkedHashMap.empty[String, String]
  val info = mutable.LinkedHashMap.empty[String, String]

  /** Counts one operation; it fails if `body` throws or returns a complaint. */
  def op(what: => String)(body: => Option[String]): Unit = {
    attempted += 1
    val complaint =
      try body
      catch { case e: Exception => Some(s"${e.getClass.getSimpleName}: ${e.getMessage}") }
    complaint.foreach(c => failures += s"$what: $c")
  }

  def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  def toJson: String = Json.obj(Seq(
    "attempted" -> Json.num(attempted),
    "failed" -> Json.num(failures.size.toLong),
    "failures" -> Json.arr(failures.take(20).map(Json.str).toSeq),
    "metrics" -> Json.obj(metrics.toSeq.map { case (k, (v, u)) =>
      k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
    }),
    "fingerprints" -> Json.obj(fingerprints.toSeq.map { case (k, v) => k -> Json.str(v) }),
    "info" -> Json.obj(info.toSeq.map { case (k, v) => k -> Json.str(v) }),
  ))
}

/** Entry point of the benchmark JVM; `perfbench/run.py` builds and launches it.
  *
  *   --workload retrain|optimize|spark_tpch  --seed N  --seconds S  --trace 0|1
  *   --out DIR  where spans and Spark's scratch files go
  *   [--tiny]   small inputs, for the smoke test
  *   [--fault]  feed one deliberately wrong value into a check
  *
  * The last line of standard output is the run's report as JSON.
  */
object Main {
  val Workloads: Map[String, (Opts, Tracer, Report) => Unit] = Map(
    "retrain" -> Retrain.run,
    "optimize" -> Optimize.run,
    "spark_tpch" -> SparkTpch.run,
  )

  def parse(args: Array[String]): Opts = {
    val flags = Set("--tiny", "--fault")
    val kv = mutable.Map.empty[String, String]
    var i = 0
    while (i < args.length) {
      if (flags(args(i))) { kv(args(i)) = "1"; i += 1 }
      else {
        require(i + 1 < args.length, s"missing value for ${args(i)}")
        kv(args(i)) = args(i + 1); i += 2
      }
    }
    val required = Seq("--workload", "--seed", "--seconds", "--trace", "--out")
    val known = flags ++ required
    require(kv.keySet.subsetOf(known), s"unknown options: ${kv.keys.filterNot(known).mkString(" ")}")
    required.foreach(k => require(kv.contains(k), s"$k is required"))
    val w = kv("--workload")
    require(Workloads.contains(w), s"unknown workload $w (${Workloads.keys.toSeq.sorted.mkString(", ")})")
    Opts(
      workload = w,
      seed = kv("--seed").toLong,
      seconds = kv("--seconds").toDouble,
      trace = kv("--trace") == "1",
      tiny = kv.contains("--tiny"),
      fault = kv.contains("--fault"),
      outDir = java.nio.file.Paths.get(kv("--out")),
    )
  }

  def main(args: Array[String]): Unit = {
    val jvmStartS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val opts = parse(args)
    val tracer = new Tracer(opts.trace)
    val report = new Report
    report.metric("jvm_start_s", jvmStartS, "s")
    Workloads(opts.workload)(opts, tracer, report)
    // Whole-run GC and JIT compiler time, to tell JVM noise from program cost.
    report.info("gc_ms") = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum.toString
    report.info("jit_ms") = ManagementFactory.getCompilationMXBean.getTotalCompilationTime.toString
    if (opts.trace) tracer.writeTo(opts.outDir.resolve(s"spans-${opts.workload}-${opts.seed}.jsonl"))
    println(report.toJson)
    System.out.flush()
    sys.exit(0)
  }
}
