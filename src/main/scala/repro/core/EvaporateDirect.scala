package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._
import repro.docs.{Naming, Setting}
import repro.llm.{LmPair, Profile, SimLM}

/** Evaporate-Direct (§3.1): map the LLM's open-extraction prompt over every
  * document as a Spark DataFrame UDF; the LLM both identifies attributes
  * and extracts values. Attributes are then unioned across documents,
  * ranked by frequency, and the table is reported at the top-k attributes.
  *
  * Token cost is returned per-document through the UDF output column and
  * summed (0 over an empty lake) — it grows linearly with the lake, which is
  * the cost pathology Evaporate-Code exists to fix.
  */
object EvaporateDirect {

  /** UDF payload: extracted pairs plus tokens processed for this document. */
  final case class DirectOut(pairs: Seq[LmPair], tokens: Long)

  /** End-to-end OpenIE: schema identification + extraction in one pass. */
  def run(spark: SparkSession, setting: Setting, docs: DataFrame,
          profile: Profile, seed: Long, k: Int): StructuredView = {
    val lm = SimLM(profile, setting, seed)
    val extractUdf = udf { (id: String, text: String) =>
      val r = lm.openExtract(id, text)
      DirectOut(r.pairs, r.tokens)
    }
    view(docs, extractUdf, "direct") { tuples =>
      // Rank attributes by how many documents mention them (§3.1: prioritize
      // head attributes) and keep the top-k for the reported table.
      val ranked = tuples.groupBy("attr")
        .agg(countDistinct(col("doc_id")) as "freq")
        .orderBy(desc("freq"), asc("attr"))
        .collect().map(_.getString(0)).toSeq
      (tuples.where(col("attr").isin(ranked.take(k): _*)), ranked)
    }
  }

  /** ClosedIE variant: the schema is given; prompt the LLM to extract each
    * named attribute from each document (prompt E.2).
    */
  def runClosed(spark: SparkSession, setting: Setting, docs: DataFrame,
                profile: Profile, seed: Long, attrs: Seq[String]): StructuredView = {
    val lm = SimLM(profile, setting, seed)
    val extractUdf = udf { (id: String, text: String) =>
      val results = attrs.map { a =>
        val (v, t) = lm.closedExtract(id, text, a)
        (LmPair(a, v), t)
      }
      DirectOut(results.map(_._1), results.map(_._2).sum)
    }
    view(docs, extractUdf, "closed")(tuples => (tuples, attrs.map(Naming.normalize)))
  }

  /** The extraction pipeline both variants share: `extractUdf` over every
    * document, cached once; its token sum; its pairs as normalised, trimmed,
    * non-empty `(doc_id, attr, value)` tuples; `rank` picks the tuples to
    * report and the schema.
    */
  private def view(docs: DataFrame, extractUdf: UserDefinedFunction, call: String)(
      rank: DataFrame => (DataFrame, Seq[String])): StructuredView = {
    val extracted = docs
      .select(col("doc_id"), extractUdf(col("doc_id"), col("text")) as "out")
      .cache()
    val tokens = extracted.agg(coalesce(sum(col("out.tokens")), lit(0L))).collect()(0).getLong(0)

    val normAttr = udf((s: String) => Naming.normalize(s))
    val tuples = extracted
      .select(col("doc_id"), explode(col("out.pairs")) as "p")
      .select(col("doc_id"), normAttr(col("p.attr")) as "attr", trim(col("p.value")) as "value")
      .where(col("value") =!= "")

    val (reported, schema) = rank(tuples)
    val table = reported.cache()
    table.count() // materialize before dropping the upstream cache
    extracted.unpersist()

    StructuredView(table, schema, Map(call -> tokens))
  }
}
