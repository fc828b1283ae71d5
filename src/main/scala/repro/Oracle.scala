package repro

import java.nio.file.{Files, Paths}
import java.sql.DriverManager
import org.apache.commons.io.FileUtils
import org.apache.spark.SparkFiles
import org.apache.spark.sql.{DataFrame, Row}

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Each table reaches DuckDB with Spark's column types: Spark writes it as
  * Parquet into a fresh directory under the session's local directory and
  * DuckDB reads it through a ``read_parquet`` view, so ``sql`` is plain SQL.
  * The directory is deleted when the check ends. The master must be local,
  * so that the files the executors write are readable where the check runs.
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  // 7 significant digits: fixed-decimal formatting rejects agreeing sums of
  // ~1e8 magnitude whose last ULPs differ with summation order (Spark's
  // partial-aggregation order is nondeterministic relative to DuckDB's).
  private def fmtNum(d: Double): String =
    if (d == 0.0) "0.000000e+00" else f"$d%.6e"

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => fmtNum(d)
          case f: Float             => fmtNum(f.toDouble)
          case bd: java.math.BigDecimal => fmtNum(bd.doubleValue)
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    require(sparkDf.sparkSession.sparkContext.isLocal,
      s"the DuckDB oracle reads Parquet files the executors write, so it needs a local master, " +
      s"not ${sparkDf.sparkSession.sparkContext.master}")
    val dir  = Files.createTempDirectory(Paths.get(SparkFiles.getRootDirectory()), "oracle-")
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val path = dir.resolve(name).toString
        df.write.parquet(path)
        conn.createStatement.execute(
          s"CREATE VIEW $name AS SELECT * FROM read_parquet('$path/*.parquet')")
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally {
      conn.close()
      FileUtils.deleteDirectory(dir.toFile)
    }
  }
}
