package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions.{col, udf}
import repro.docs.{Naming, Setting}
import repro.llm.{LmPair, OpenExtraction, Profile, SimLM}

/** Evaporate-Direct (§3.1): map the LLM's open-extraction prompt over every
  * document as a Spark DataFrame UDF; the LLM both identifies attributes
  * and extracts values. Attributes are then unioned across documents,
  * ranked by frequency, and the table is reported at the top-k attributes.
  *
  * The LLM calls are the view's one Spark job, which collects each
  * document's pairs and tokens; the token sum, the ranking and the top-k cut
  * run on the driver, and the table is a local scan. Tokens grow
  * linearly with the lake, which is the cost pathology Evaporate-Code exists
  * to fix.
  */
object EvaporateDirect {

  /** End-to-end OpenIE: schema identification + extraction in one pass. */
  def run(spark: SparkSession, setting: Setting, docs: DataFrame,
          profile: Profile, seed: Long, k: Int): StructuredView = {
    val lm = SimLM(profile, setting, seed)
    val (tuples, tokens) =
      extract(spark, docs, udf((id: String, text: String) => lm.openExtract(id, text)))
    // Rank attributes by how many documents mention them (§3.1: prioritize
    // head attributes), ties by name, and keep the top-k for the table.
    val ranked = tuples.groupMapReduce(_._2)(t => Set(t._1))(_ ++ _).toSeq
      .sortBy { case (attr, docIds) => (-docIds.size, attr) }.map(_._1)
    val top = ranked.take(k).toSet
    StructuredView(StructuredView.tuplesDf(spark, tuples.filter(t => top(t._2))), ranked,
      Map("direct" -> tokens))
  }

  /** ClosedIE variant: the schema is given; prompt the LLM to extract each
    * named attribute from each document (prompt E.2).
    */
  def runClosed(spark: SparkSession, setting: Setting, docs: DataFrame,
                profile: Profile, seed: Long, attrs: Seq[String]): StructuredView = {
    val lm = SimLM(profile, setting, seed)
    val (tuples, tokens) = extract(spark, docs, udf { (id: String, text: String) =>
      val results = attrs.map(a => lm.closedExtract(id, text, a))
      OpenExtraction(attrs.zip(results).map { case (a, (v, _)) => LmPair(a, v) }, results.map(_._2).sum)
    })
    StructuredView(StructuredView.tuplesDf(spark, tuples), attrs.map(Naming.normalize),
      Map("closed" -> tokens))
  }

  /** A value as a view reports it: leading and trailing U+0020 removed, as
    * Spark SQL's `trim` does (tabs and line breaks stay), or `None` for a
    * null value or one that is left empty.
    */
  private[core] def cleanValue(v: String): Option[String] = {
    val s     = if (v == null) "" else v
    val start = s.indexWhere(_ != ' ')
    if (start < 0) None else Some(s.substring(start, s.lastIndexWhere(_ != ' ') + 1))
  }

  /** The one Spark job both variants share: `extractUdf` over every document,
    * collected. Returns its pairs as `(doc_id, attr, value)` tuples with
    * normalised attributes and cleaned values, and its token sum (0 over an
    * empty lake).
    */
  private def extract(spark: SparkSession, docs: DataFrame, extractUdf: UserDefinedFunction)
      : (Seq[(String, String, String)], Long) = {
    import spark.implicits._
    val outs = docs.select(col("doc_id"), extractUdf(col("doc_id"), col("text")))
      .as[(String, OpenExtraction)].collect().toSeq
    val tuples = outs.flatMap { case (id, out) =>
      out.pairs.flatMap(p => cleanValue(p.value).map(v => (id, Naming.normalize(p.attr), v)))
    }
    (tuples, outs.map(_._2.tokens).sum)
  }
}
