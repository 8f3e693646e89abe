package perfbench

import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, udf}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import repro.Oracle
import repro.core.StructuredView
import repro.docs.Naming
import repro.eval.Metrics

/** The output check every view passes, outside the clock. */
object Check {

  type Tuple = (String, String, String)

  final case class Outcome(tuples: Seq[Tuple], problems: Seq[String], digest: String)

  def apply(cell: Cell, view: StructuredView): Outcome = {
    val problems = Seq.newBuilder[String]
    val columns  = view.table.columns.toSeq
    if (columns != Seq("doc_id", "attr", "value"))
      problems += s"columns are ${columns.mkString(",")}, not doc_id,attr,value"
    val tuples = view.table.collect().toSeq.map(r => (r.getString(0), r.getString(1), r.getString(2)))

    val lake   = cell.lakeIds.toSet
    val schema = view.schema.toSet
    def count(what: String, n: Int): Unit = if (n > 0) problems += s"$n tuples with $what"
    count("a doc_id outside the lake", tuples.count(t => !lake.contains(t._1)))
    count("an attr outside view.schema", tuples.count(t => !schema.contains(t._2)))
    count("an empty value", tuples.count(t => t._3 == null || t._3.trim.isEmpty))
    if (cell.oneValuePerSlot)
      count("a second value for its (doc_id, attr)",
        tuples.groupBy(t => (t._1, t._2)).values.map(_.size - 1).sum)
    if (view.tokens != view.tokenBreakdown.values.sum)
      problems += s"tokens ${view.tokens} != sum of tokenBreakdown ${view.tokenBreakdown}"

    Outcome(tuples, problems.result(), digest(tuples))
  }

  /** Order-independent digest of a view's tuples. */
  def digest(tuples: Seq[Tuple]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    tuples.sorted.foreach { case (d, a, v) =>
      md.update(s"$d\u0001$a\u0001$v\n".getBytes("UTF-8"))
    }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  /** Recomputes Pair F1 in DuckDB and requires it to equal `Metrics.pairF1`.
    * Attribute names are normalised with the program's `Naming.normalize` before
    * loading; value canonicalisation, de-duplication, the join and the ratios
    * are DuckDB's.
    */
  def oraclePairF1(spark: SparkSession, pred: DataFrame, gold: DataFrame, got: Metrics.Prf): Unit = {
    val norm = udf((s: String) => Naming.normalize(s))
    def load(df: DataFrame) = df.select(col("doc_id"), norm(col("attr")) as "attr", col("value"))
    val sql =
      """WITH p AS (SELECT DISTINCT doc_id, attr, trim(regexp_replace(value, '\s+', ' ', 'g')) AS value
        |           FROM pt WHERE trim(regexp_replace(value, '\s+', ' ', 'g')) <> ''),
        |     g AS (SELECT DISTINCT doc_id, attr, trim(regexp_replace(value, '\s+', ' ', 'g')) AS value
        |           FROM gt WHERE trim(regexp_replace(value, '\s+', ' ', 'g')) <> ''),
        |     c AS (SELECT (SELECT count(*) FROM p JOIN g USING (doc_id, attr, value))::DOUBLE AS m,
        |                  (SELECT count(*) FROM p)::DOUBLE AS np,
        |                  (SELECT count(*) FROM g)::DOUBLE AS ng),
        |     r AS (SELECT CASE WHEN np = 0 THEN 0.0 ELSE m / np END AS pp,
        |                  CASE WHEN ng = 0 THEN 0.0 ELSE m / ng END AS rr FROM c)
        |SELECT pp AS pair_p, rr AS pair_r,
        |       CASE WHEN pp + rr = 0 THEN 0.0 ELSE 2 * pp * rr / (pp + rr) END AS pair_f1 FROM r
        |""".stripMargin
    val schema = StructType(Seq("pair_p", "pair_r", "pair_f1").map(StructField(_, DoubleType)))
    val expected = spark.createDataFrame(
      spark.sparkContext.parallelize(Seq(Row(got.precision, got.recall, got.f1)), 1), schema)
    Oracle.assertEquivalent(expected, sql, "pt" -> load(pred), "gt" -> load(gold))
  }
}
