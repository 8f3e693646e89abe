package repro.eval

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{CodeConfig, EvaporateCode, EvaporateDirect, SchemaSynthesis, StructuredView}
import repro.docs.{DocGen, DocLake, Setting}
import repro.llm.{Profile, SimLM}
import repro.util.CostModel

/** Shared experiment harness: builds (and memoises) the synthetic lakes, runs
  * each system, and computes the paper's metrics. Every bench suite and job
  * goes through these entry points so tables are produced consistently.
  */
object Harness {

  private val lakes = mutable.Map.empty[(String, Int, Long), (DataFrame, DataFrame)]

  /** Documents + gold tuples for a setting, cached, and built once per
    * `(setting, nDocs, seed)` in a JVM: every table and test reuses them.
    */
  def lake(spark: SparkSession, setting: Setting, nDocs: Int, seed: Long): (DataFrame, DataFrame) =
    synchronized {
      lakes.getOrElseUpdate((setting.name, nDocs, seed), {
        val docs = DocLake.documents(spark, setting, nDocs, seed).cache()
        val gold = DocLake.gold(spark, setting, nDocs, seed).cache()
        docs.count(); gold.count()
        (docs, gold)
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

  // ------------------------------------------------------------- systems --

  final case class OpenRun(view: StructuredView, prf: Metrics.Prf)

  def directOpen(spark: SparkSession, setting: Setting, docs: DataFrame,
                 gold: DataFrame, profile: Profile, seed: Long): OpenRun = {
    val k    = setting.goldAttrs.size
    val view = EvaporateDirect.run(spark, setting, docs, profile, seed, k)
    OpenRun(view, Metrics.pairF1(view.table, gold))
  }

  def codeOpen(spark: SparkSession, setting: Setting, docs: DataFrame, gold: DataFrame,
               profile: Profile, seed: Long, cfg: CodeConfig = CodeConfig(),
               evalIds: Option[Seq[String]] = None): OpenRun = {
    val k    = setting.goldAttrs.size
    val view = EvaporateCode.run(spark, setting, docs, profile, seed, k, cfg)
    val (p, g) = evalIds match {
      case Some(ids) => (restrict(view.table, ids), restrict(gold, ids))
      case None      => (view.table, gold)
    }
    OpenRun(view, Metrics.pairF1(p, g))
  }

  def directClosed(spark: SparkSession, setting: Setting, docs: DataFrame,
                   gold: DataFrame, profile: Profile, seed: Long): (StructuredView, Double) = {
    val view = EvaporateDirect.runClosed(spark, setting, docs, profile, seed, setting.goldAttrs)
    (view, Metrics.closedTextF1(spark, view.table, gold))
  }

  def codeClosed(spark: SparkSession, setting: Setting, docs: DataFrame, gold: DataFrame,
                 profile: Profile, seed: Long, cfg: CodeConfig = CodeConfig()): (StructuredView, Double) = {
    val view = EvaporateCode.run(spark, setting, docs, profile, seed,
      setting.goldAttrs.size, cfg, givenSchema = Some(setting.goldAttrs))
    (view, Metrics.closedTextF1(spark, view.table, gold))
  }

  /** Schema-identification quality (Table 5 right column): F1@k between the
    * synthesized ranked attributes and the gold attribute names.
    */
  def schemaF1AtK(setting: Setting, profile: Profile, seed: Long, sampleDocs: Int = 10): Double = {
    val lm     = SimLM(profile, setting, seed)
    val sample = DocLake.sample(setting, sampleDocs, seed)
    val result = SchemaSynthesis.synthesize(sample, lm)
    Metrics.f1AtK(result.ranked, setting.goldAttrs, setting.goldAttrs.size)
  }

  // ---------------------------------------------------------------- cost --

  /** Per-10k-document token cost for a Direct run measured over
    * `measuredDocs` documents (all tokens are per-document). A Code(+) run's
    * tokens are fixed in the lake size, so its per-10k cost is `view.tokens`.
    */
  def directTokensPer10k(view: StructuredView, measuredDocs: Int): Long =
    CostModel.per10kDocs(0L, view.tokens, measuredDocs.toLong)

  // ------------------------------------------------------------- display --

  /** A fraction as a percentage rounded to one decimal. */
  def pct(x: Double): Double = math.round(x * 1000.0) / 10.0
}
