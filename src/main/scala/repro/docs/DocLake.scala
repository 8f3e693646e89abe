package repro.docs

import scala.reflect.ClassTag
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
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

  /** The ground-truth tuples (doc_id, attr, value) of rendered pages: their gold maps as a local scan. */
  def gold(spark: SparkSession, pages: Seq[RenderedDoc]): DataFrame =
    StructuredView.tuplesDf(spark, pages.flatMap(d => d.gold.map { case (a, v) => (d.id, a, v) }))

  /** `gold` of `sample(setting, nDocs, seed)`. */
  def gold(spark: SparkSession, setting: Setting, nDocs: Int, seed: Long): DataFrame =
    gold(spark, sample(setting, nDocs, seed))

  /** `task` over each partition's `(doc_id, text)` rows of a lake, in one
    * Spark job; its results in partition order. The rows are read as
    * `InternalRow`s, each column as a `String`, null where the cell is null.
    */
  def perPartition[T: ClassTag](docs: DataFrame)(task: Iterator[(String, String)] => T): Array[T] =
    docs.select(col("doc_id"), col("text")).queryExecution.toRdd
      .mapPartitions(rows => Iterator.single(task(rows.map(r => (string(r, 0), string(r, 1))))))
      .collect()

  private def string(r: InternalRow, i: Int): String =
    if (r.isNullAt(i)) null else r.getUTF8String(i).toString

  /** Driver-side corpus for sampling steps (schema synthesis, D_eval). */
  def sample(setting: Setting, nDocs: Int, seed: Long): Seq[RenderedDoc] =
    DocGen.corpus(setting, nDocs, seed)
}
