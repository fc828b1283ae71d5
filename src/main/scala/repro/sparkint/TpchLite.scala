package repro.sparkint

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData

/** TPC-H-lite query set for the real-Spark retrofit experiment
  * (Section 6.6.2 analog). Queries are plain SQL over the typed SynthData
  * columns, in the subset Spark SQL and DuckDB share, so the DuckDB oracle
  * can verify result equality of CLEO-changed plans on identical input.
  *
  * Each query is parameterized (dates/type cuts) like the paper's runs with
  * "randomly chosen different parameters".
  */
object TpchLite {

  final case class Query(name: String, tables: Seq[String], sql: Int => String)

  private def dateCut(param: Int): String = {
    val days = 400 + (param * 97) % 1600
    java.time.LocalDate.of(1992, 1, 1).plusDays(days).toString
  }
  private def dateLo(param: Int): String = {
    val days = 100 + (param * 53) % 800
    java.time.LocalDate.of(1992, 1, 1).plusDays(days).toString
  }
  private def segment(param: Int): String =
    Seq("BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE")(param % 5)
  private def ptype(param: Int): String =
    Seq("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")(param % 6)

  val queries: Seq[Query] = Seq(
    Query("Q1", Seq("lineitem"), p => s"""
      SELECT l_returnflag AS rf, l_linestatus AS ls,
             SUM(l_quantity) AS sum_qty,
             SUM(l_extendedprice) AS sum_price,
             AVG(l_discount) AS avg_disc,
             COUNT(*) AS cnt
      FROM lineitem
      WHERE l_shipdate <= DATE '${dateCut(p)}'
      GROUP BY l_returnflag, l_linestatus"""),

    Query("Q3", Seq("customer", "orders", "lineitem"), p => s"""
      SELECT o.o_orderkey AS okey,
             SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
      FROM customer c
      JOIN orders o ON c.c_custkey = o.o_custkey
      JOIN lineitem l ON l.l_orderkey = o.o_orderkey
      WHERE c.c_mktsegment = '${segment(p)}'
        AND o.o_orderdate < DATE '${dateCut(p)}'
        AND l.l_shipdate > DATE '${dateLo(p)}'
      GROUP BY o.o_orderkey"""),

    Query("Q5", Seq("customer", "orders", "lineitem"), p => s"""
      SELECT c.c_nationkey AS nk,
             SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
      FROM customer c
      JOIN orders o ON c.c_custkey = o.o_custkey
      JOIN lineitem l ON l.l_orderkey = o.o_orderkey
      WHERE o.o_orderdate >= DATE '${dateLo(p)}'
        AND o.o_orderdate < DATE '${dateCut(p)}'
      GROUP BY c.c_nationkey"""),

    Query("Q8", Seq("part", "lineitem", "orders"), p => s"""
      SELECT YEAR(o.o_orderdate) AS oy,
             SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
      FROM part pt
      JOIN lineitem l ON pt.p_partkey = l.l_partkey
      JOIN orders o ON l.l_orderkey = o.o_orderkey
      WHERE pt.p_type = '${ptype(p)}'
      GROUP BY YEAR(o.o_orderdate)"""),

    Query("Q12", Seq("orders", "lineitem"), p => s"""
      SELECT l.l_linestatus AS ls, COUNT(*) AS cnt,
             SUM(o.o_totalprice) AS total
      FROM orders o
      JOIN lineitem l ON o.o_orderkey = l.l_orderkey
      WHERE l.l_shipdate >= DATE '${dateLo(p)}'
        AND l.l_shipdate < DATE '${dateCut(p)}'
      GROUP BY l.l_linestatus"""),

    Query("Q14", Seq("lineitem", "part"), p => s"""
      SELECT SUM(CASE WHEN pt.p_type = 'PROMO'
                      THEN l.l_extendedprice * (1 - l.l_discount)
                      ELSE 0.0 END) AS promo,
             SUM(l.l_extendedprice * (1 - l.l_discount)) AS total
      FROM lineitem l
      JOIN part pt ON l.l_partkey = pt.p_partkey
      WHERE l.l_shipdate >= DATE '${dateLo(p)}'
        AND l.l_shipdate < DATE '${dateCut(p)}'"""),
  )

  /** Generates and registers the TPC-H-lite tables as cached temp views. */
  def register(spark: SparkSession, sf: Double): Map[String, DataFrame] = {
    val tables = Map(
      "lineitem" -> SynthData.lineitem(spark, sf),
      "orders"   -> SynthData.orders(spark, sf),
      "customer" -> SynthData.customer(spark, sf),
      "part"     -> SynthData.part(spark, sf),
    )
    tables.foreach { case (name, df) =>
      val cached = df.cache()
      cached.count() // materialize before timing
      cached.createOrReplaceTempView(name)
    }
    tables
  }
}
