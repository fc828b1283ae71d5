package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Tables

class RunSpec extends AnyFunSuite {

  private val names = Tables.all.map(_._1)

  /** Runs `Run.main(args)`, which must throw; returns its message and what it printed. */
  private def rejected(args: String*): (String, String) = {
    val out = new java.io.ByteArrayOutputStream
    val e = Console.withOut(out)(intercept[IllegalArgumentException](Run.main(args.toArray)))
    (e.getMessage, out.toString)
  }

  test("Run without a table name throws, listing every table name") {
    val (msg, printed) = rejected()
    names.foreach(n => assert(msg.contains(n), s"'$n' missing from: $msg"))
    assert(printed.isEmpty)
  }

  test("Run with an unknown name among valid ones throws before building any table") {
    val (msg, printed) = rejected("workload", "table9", "weights")
    names.foreach(n => assert(msg.contains(n), s"'$n' missing from: $msg"))
    assert(msg.contains("table9"))
    assert(printed.isEmpty, "no table may be built or printed")
  }

  test("table names are distinct and in paper order") {
    assert(names.distinct == names)
    assert(names == Seq("table1", "table4", "table5", "table6", "table7", "table8",
      "workload", "cardlearner", "partitions", "plans", "overheads", "weights"))
  }
}
