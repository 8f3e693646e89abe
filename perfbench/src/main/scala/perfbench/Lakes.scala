package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, explode, udf}
import repro.core.CodeConfig
import repro.docs.{DocGen, RenderedDoc, Setting}

/** The benchmark's lakes, drawn from the workload seed.
  *
  * The system's own seed, which drives the simulated LLM and the D_eval
  * sample the system renders for itself, is held at the paper's 42. So every
  * workload seed gets the same LLM plan (schema, candidate functions, kept
  * functions) and the same work per document, and the workload seed picks
  * the lake's other documents. Without this, which functions survive differs
  * from seed to seed and moves a run's time by more than the benchmark's
  * bounds.
  *
  * A lake of n documents is the system's sample (document indices
  * 0 until `SampleDocs`) followed by n - `SampleDocs` consecutive documents
  * starting at `first(seed)`. At seed 42 this is exactly the program's own
  * lake, `DocLake.documents(spark, setting, n, 42)`; [[LakeCheck]] checks this.
  */
object Lakes {

  val SystemSeed: Long = 42L
  val SampleDocs: Int  = CodeConfig().sampleDocs

  def first(seed: Long): Long = Math.floorMod(seed - SystemSeed, 1L << 20) * 1000000L

  def index(i: Long, seed: Long): Long = if (i < SampleDocs) i else first(seed) + i

  def indices(n: Int, seed: Long): Seq[Long] = (0L until n.toLong).map(index(_, seed))

  def render(s: Setting, idx: Long): RenderedDoc = DocGen.render(s, idx, SystemSeed)

  /** The document collection (doc_id, text), rendered inside Spark. */
  def documents(spark: SparkSession, s: Setting, n: Int, seed: Long): DataFrame = {
    val id   = udf((i: Long) => DocGen.docId(s, index(i, seed)))
    val text = udf((i: Long) => render(s, index(i, seed)).text)
    spark.range(n.toLong).select(id(col("id")) as "doc_id", text(col("id")) as "text")
  }

  /** The ground-truth tuples (doc_id, attr, value) of the same documents. */
  def gold(spark: SparkSession, s: Setting, n: Int, seed: Long): DataFrame = {
    val id    = udf((i: Long) => DocGen.docId(s, index(i, seed)))
    val pairs = udf((i: Long) => render(s, index(i, seed)).gold.toSeq)
    spark.range(n.toLong)
      .select(id(col("id")) as "doc_id", explode(pairs(col("id"))) as "pair")
      .select(col("doc_id"), col("pair._1") as "attr", col("pair._2") as "value")
  }
}
