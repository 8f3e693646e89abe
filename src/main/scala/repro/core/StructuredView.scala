package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}

/** Output of an Evaporate run: the materialized structured view.
  *
  * @param table   extracted tuples (doc_id, attr, value), attr restricted to
  *                the system's top-k schema
  * @param schema  the full ranked attribute list the system identified
  * @param tokens  total tokens processed by the LLM for this run — the
  *                paper's cost metric
  * @param tokenBreakdown tokens by call site (schema / synthesis / eval /
  *                direct), for the cost tables
  */
final case class StructuredView(
    table: DataFrame,
    schema: Seq[String],
    tokens: Long,
    tokenBreakdown: Map[String, Long],
)

object StructuredView {

  /** The tuple schema of every view's `table` and of the gold tables. */
  private val tupleSchema: StructType = StructType(Seq(
    StructField("doc_id", StringType), StructField("attr", StringType),
    StructField("value", StringType)))

  /** A driver-side tuple list as a `tupleSchema` DataFrame. */
  def tuplesDf(spark: SparkSession, tuples: Seq[(String, String, String)]): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(tuples.map { case (d, a, v) => Row(d, a, v) }, 4),
      tupleSchema)
}
