package repro.core

import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}

/** Output of an Evaporate run: the materialized structured view.
  *
  * @param table   extracted tuples (doc_id, attr, value), attr restricted to
  *                the system's top-k schema; a local relation (`tuplesDf`)
  *                for every system, so reading it starts no Spark job
  * @param schema  the full ranked attribute list the system identified
  * @param tokenBreakdown tokens processed by the LLM for this run, by call
  *                site (schema / synthesis / eval / validate, or direct /
  *                closed), for the cost tables
  */
final case class StructuredView(
    table: DataFrame,
    schema: Seq[String],
    tokenBreakdown: Map[String, Long],
) {
  /** Total LLM tokens for this run, the paper's cost metric. */
  def tokens: Long = tokenBreakdown.values.sum
}

object StructuredView {

  /** The tuple schema of every view's `table` and of the gold tables. */
  private val tupleSchema: StructType = StructType(Seq(
    StructField("doc_id", StringType), StructField("attr", StringType),
    StructField("value", StringType)))

  /** A driver-side tuple list as a `tupleSchema` DataFrame over a local
    * relation: the rows stay on the driver, so collecting them starts no
    * Spark job.
    */
  def tuplesDf(spark: SparkSession, tuples: Seq[(String, String, String)]): DataFrame =
    spark.createDataFrame(tuples.map { case (d, a, v) => Row(d, a, v) }.asJava, tupleSchema)
}
