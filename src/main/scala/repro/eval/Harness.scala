package repro.eval

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.docs.{DocGen, DocLake, Setting}

/** What the paper tables, the jobs, the tests and the benchmark share: the one
  * SparkSession factory, the memoised synthetic lakes, the 10-document
  * evaluation sample, and percentage rounding.
  */
object Harness {

  /** Every SparkSession the program builds: the jobs' and the tests' (through
    * `SparkSpec.shared`). The master comes from `SPARK_MASTER` (default
    * `local[*]`). Shuffles use 64 partitions, far more than the small lakes
    * need, so results that depended on partitioning would show. No UI.
    */
  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  private val lakes = mutable.Map.empty[(String, Int, Long), (DataFrame, DataFrame)]

  /** Documents + gold tuples for a setting, built once per
    * `(setting, nDocs, seed)` in a JVM: every table and test reuses them.
    * The documents are cached; gold is a local scan (`DocLake.gold`), so
    * reading it, whole or through `restrict`, starts no Spark job.
    */
  def lake(spark: SparkSession, setting: Setting, nDocs: Int, seed: Long): (DataFrame, DataFrame) =
    synchronized {
      lakes.getOrElseUpdate((setting.name, nDocs, seed), {
        val docs = DocLake.documents(spark, setting, nDocs, seed).cache()
        docs.count()
        (docs, DocLake.gold(spark, setting, nDocs, seed))
      })
    }

  /** The paper evaluates Direct on a 10-document sample for cost reasons
    * and reports Code+ on the same sample (Table 3 caption). These helpers
    * restrict a lake or a view to the first `n` documents.
    */
  def sampleIds(setting: Setting, n: Int): Seq[String] =
    (0L until n.toLong).map(DocGen.docId(setting, _))

  def restrict(df: DataFrame, ids: Seq[String]): DataFrame =
    df.where(col("doc_id").isin(ids: _*))

  // ------------------------------------------------------------- display --

  /** A fraction as a percentage rounded to one decimal. */
  def pct(x: Double): Double = math.round(x * 1000.0) / 10.0
}
