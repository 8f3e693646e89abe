package repro.docs

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.StructuredView

/** DataFrame views of a synthetic data lake.
  *
  * Documents are generated *inside* Spark from `spark.range`: rendering is
  * deterministic in (setting, idx, seed), so executors regenerate identical
  * text without shipping materialized corpora. Gold is a small tuple table
  * like every view's, rendered on the driver and read without a Spark job.
  */
object DocLake {

  /** The document collection: (doc_id string, text string). */
  def documents(spark: SparkSession, setting: Setting, nDocs: Int, seed: Long): DataFrame = {
    val renderText = udf { (idx: Long) => DocGen.render(setting, idx, seed).text }
    val renderId   = udf { (idx: Long) => DocGen.docId(setting, idx) }
    spark.range(nDocs.toLong)
      .select(renderId(col("id")) as "doc_id", renderText(col("id")) as "text")
  }

  /** The ground-truth tuples (doc_id, attr, value): `sample`'s gold maps as a local scan. */
  def gold(spark: SparkSession, setting: Setting, nDocs: Int, seed: Long): DataFrame =
    StructuredView.tuplesDf(spark, sample(setting, nDocs, seed).flatMap(d =>
      d.gold.map { case (a, v) => (d.id, a, v) }))

  /** Driver-side corpus for sampling steps (schema synthesis, D_eval). */
  def sample(setting: Setting, nDocs: Int, seed: Long): Seq[RenderedDoc] =
    DocGen.corpus(setting, nDocs, seed)
}
