package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Output of an Evaporate run: the materialized structured view.
  *
  * @param table   extracted tuples (doc_id, attr, value), attr restricted to
  *                the system's top-k schema; a local scan (`tuplesDf`) for
  *                every system, so reading it, whole or restricted to some
  *                doc_ids, starts no Spark job (any other projection or
  *                filter over it does; see `tuplesDf`)
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

  /** A driver-side tuple list as a `(doc_id, attr, value)` DataFrame over a
    * DSv2 local scan ([[TupleSource]]): the rows are converted once, stay on
    * the driver and are not part of the logical plan, so Catalyst's rules do
    * not walk them; collecting the table, whole or restricted on `doc_id`
    * (`Harness.restrict`), starts no Spark job. Only those reads avoid one:
    * unlike a `LocalRelation`, whose `Project`s and `Filter`s Catalyst folds
    * into the local data, any other projection (a UDF `select`) or filter
    * (`where(attr = …)`) over this table runs as a Spark job.
    */
  def tuplesDf(spark: SparkSession, tuples: Seq[(String, String, String)]): DataFrame =
    TupleSource.load(spark, tuples)
}
