package repro

import java.io.File
import org.apache.spark.SparkFiles
import org.apache.spark.sql.functions._

/** Sanity checks of the DuckDB oracle itself. */
class OracleSpec extends SparkSpec {

  test("oracle accepts an equivalent aggregate") {
    import spark.implicits._
    val df = Seq((1, 10.0), (1, 20.0), (2, 5.0)).toDF("k", "v")
    val agg = df.groupBy($"k").agg(sum($"v") as "s").select($"k", $"s")
    Oracle.assertEquivalent(agg,
      "SELECT k, SUM(v) AS s FROM t GROUP BY k", "t" -> df)
  }

  test("oracle rejects a wrong result") {
    import spark.implicits._
    val df = Seq((1, 10.0), (2, 5.0)).toDF("k", "v")
    val wrong = df.select($"k", ($"v" * 2) as "s")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT k, v AS s FROM t", "t" -> df)
    }
  }

  test("oracle rejects mismatched column sets") {
    import spark.implicits._
    val df = Seq((1, 10.0)).toDF("k", "v")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df.select($"k"), "SELECT k, v FROM t", "t" -> df)
    }
  }

  test("oracle tolerates summation-order float noise") {
    import spark.implicits._
    val df = (1 to 1000).map(i => (i % 7, i * 1.000001)).toDF("k", "v")
    val agg = df.groupBy($"k").agg(sum($"v") as "s")
    Oracle.assertEquivalent(agg,
      "SELECT k, SUM(v) AS s FROM t GROUP BY k", "t" -> df)
  }

  test("oracle loads typed columns with nulls, so the SQL needs no casts") {
    import spark.implicits._
    def d(s: String) = java.sql.Date.valueOf(s)
    val df = Seq[(Int, java.lang.Long, java.lang.Double, String, java.sql.Date)](
      (1, 3L, 1.5, "a", d("1995-06-01")),
      (1, null, null, null, null),
      (2, 7L, 2.25, "b", d("1997-02-03")),
      (2, 1L, null, "c", d("1994-12-31")),
    ).toDF("k", "n", "v", "s", "d")
    val cut = lit(d("1996-01-01"))
    val agg = df.groupBy($"k").agg(sum($"n") as "sn", sum($"v") as "sv", count($"s") as "cs",
      max($"d") as "md", sum(when($"d" < cut, 1).otherwise(0)) as "early")
    Oracle.assertEquivalent(agg,
      """SELECT k, SUM(n) AS sn, SUM(v) AS sv, COUNT(s) AS cs, MAX(d) AS md,
                SUM(CASE WHEN d < DATE '1996-01-01' THEN 1 ELSE 0 END) AS early
         FROM t GROUP BY k""", "t" -> df)
    Oracle.assertEquivalent(df.filter($"d" < cut).select($"k", $"s", $"d"),
      "SELECT k, s, d FROM t WHERE d < DATE '1996-01-01'", "t" -> df)
  }

  test("oracle accepts an empty input table") {
    import spark.implicits._
    val df = Seq((1, 10.0), (2, 5.0)).toDF("k", "v").filter($"v" > 100.0)
    Oracle.assertEquivalent(df.agg(count(lit(1)) as "c", sum($"v") as "s"),
      "SELECT COUNT(*) AS c, SUM(v) AS s FROM t", "t" -> df)
    Oracle.assertEquivalent(df, "SELECT k, v FROM t", "t" -> df)
  }

  test("a rejected check leaves no oracle directory behind") {
    import spark.implicits._
    val df = Seq((1, 10.0), (2, 5.0)).toDF("k", "v")
    val root = new File(SparkFiles.getRootDirectory())
    def entries = Option(root.list()).map(_.toSet).getOrElse(Set.empty[String])
    val before = entries
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df.select($"k", ($"v" * 2) as "v"), "SELECT k, v FROM t", "t" -> df)
    }
    Oracle.assertEquivalent(df, "SELECT k, v FROM t", "t" -> df)
    assert(entries == before)
  }
}
