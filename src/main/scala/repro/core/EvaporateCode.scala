package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.docs.{DocLake, Naming, Setting}
import repro.fn.{Extractor, Synthesizer}
import repro.llm.{Profile, SimLM}
import repro.util.Rng
import repro.ws.Aggregation

/** Configuration for the code-synthesis implementations.
  *
  * @param singleFunction Evaporate-Code (§3.2): one synthesized function per
  *                       attribute, applied as-is — no LLM verification, no
  *                       aggregation. When false this is Evaporate-Code+
  *                       (§3.3) under the given aggregation `mode`.
  * @param sampleDocs     documents sampled for schema synthesis, function
  *                       synthesis and D_eval (the paper uses 10 for all
  *                       three, §4.1)
  * @param perPrompt      sample chunks per synthesis prompt template; with
  *                       the two templates P_A/P_B this yields 2×perPrompt
  *                       candidate functions per attribute
  */
final case class CodeConfig(
    sampleDocs: Int = 10,
    perPrompt: Int = 5,
    mode: Aggregation.Mode = Aggregation.WsFull,
    singleFunction: Boolean = false,
    validate: Boolean = true,
    prompts: Seq[Synthesizer.PromptKind] = Seq(Synthesizer.PA, Synthesizer.PB),
)

/** Evaporate-Code and Evaporate-Code+ (§3.2–3.3).
  *
  * LLM work (schema synthesis, function synthesis, D_eval labeling) happens
  * once on a small driver-side sample; the synthesized extractors are then
  * shipped in a single Spark UDF over the whole lake — the LLM token cost
  * is *fixed* in the number of documents, the paper's headline property.
  */
object EvaporateCode {

  /** @param givenSchema when set (ClosedIE), skip schema synthesis and
    *                    extract exactly these attributes
    * @param k           number of top-ranked schema attributes to extract
    *                    (ignored when `givenSchema` is set)
    */
  def run(spark: SparkSession, setting: Setting, docs: DataFrame, profile: Profile,
          seed: Long, k: Int, cfg: CodeConfig = CodeConfig(),
          givenSchema: Option[Seq[String]] = None): StructuredView = {

    val lm     = SimLM(profile, setting, seed)
    val sample = DocLake.sample(setting, cfg.sampleDocs, seed)

    // -- 1. schema ---------------------------------------------------------
    val (schemaRanked, schemaTokens) = givenSchema match {
      case Some(attrs) => (attrs.map(Naming.normalize), 0L)
      case None =>
        val r = SchemaSynthesis.synthesize(sample, lm)
        (r.ranked, r.tokens)
    }
    val attrs = if (givenSchema.isDefined) schemaRanked else schemaRanked.take(k)

    // -- 2. per-attribute synthesis + candidate selection -------------------
    var synthTokens = 0L
    var evalTokens  = 0L
    // attr -> (kept extractors, e estimate)
    val plan: Seq[(String, Seq[Extractor], Double)] = attrs.map { attr =>
      val spec = setting.attrByName(attr)

      val cands: Seq[Extractor] =
        if (cfg.singleFunction) {
          val doc = spec.flatMap(s => sample.find(_.gold.contains(s.name)))
          val s = Synthesizer.synthesize(spec, attr, doc, Synthesizer.PA, profile,
            Rng(seed).derive("synth", attr, "single"))
          synthTokens += s.tokens
          Seq(s.extractor)
        } else {
          val (cs, t) = Synthesizer.candidates(spec, attr, sample, cfg.perPrompt, profile, seed,
            cfg.prompts)
          synthTokens += t
          cs
        }

      if (cfg.singleFunction) {
        // Evaporate-Code trusts its one function: no verification pass.
        (attr, cands, 1.0)
      } else {
        val labeled = sample.map(d => lm.closedExtract(d.id, d.text, attr))
        evalTokens += labeled.map(_._2).sum
        val lmLabels = labeled.map(_._1)
        val e        = Aggregation.estimateE(lmLabels)
        val evalOutputs   = cands.map(c => sample.map(d => c.extract(d.text)))
        val (keptIdx, _)  = Aggregation.selectFunctions(evalOutputs, lmLabels, e, cfg.mode)
        (attr, keptIdx.map(cands), e)
      }
    }

    val active = plan.filter(_._2.nonEmpty)

    // -- 3. one pass over the lake applying every surviving function --------
    val activeAttrs = active.map(_._1)
    val activeFns   = active.map(_._2.toIndexedSeq)
    val votesUdf = udf { (text: String) =>
      activeFns.map(fs => fs.map(_.extract(text)))
    }
    val collected: Array[Row] =
      if (active.isEmpty) Array.empty
      else docs.select(col("doc_id"), votesUdf(col("text")) as "votes").collect()

    // -- 4. per-attribute aggregation ---------------------------------------
    val eByAttr = active.map { case (a, _, e) => a -> e }.toMap
    val predictions: Seq[(String, String, String)] = activeAttrs.zipWithIndex.flatMap {
      case (attr, ai) =>
        val rows = collected.toSeq.map { r =>
          val votes = r.getAs[Seq[Seq[String]]]("votes")(ai).toIndexedSeq
          (r.getString(0), votes)
        }
        val preds: Map[String, String] =
          if (cfg.singleFunction) rows.map { case (id, v) => id -> v.head }.toMap
          else Aggregation.aggregate(rows, eByAttr(attr), cfg.mode)
        preds.collect { case (id, v) if v.trim.nonEmpty => (id, attr, v.trim) }
    }

    // -- 5. unsupervised schema validation (prompt E.4) ----------------------
    var validateTokens = 0L
    val validAttrs: Set[String] =
      if (!cfg.validate || cfg.singleFunction) activeAttrs.toSet
      else activeAttrs.filter { a =>
        val vals = predictions.collect { case (_, `a`, v) => v }.take(5)
        if (vals.isEmpty) false
        else {
          val (ok, t) = lm.validateAttr(a, vals)
          validateTokens += t
          ok
        }
      }.toSet

    val finalTuples = predictions.filter { case (_, a, _) => validAttrs.contains(a) }
    val table = StructuredView.tuplesDf(spark, finalTuples)

    val breakdown = Map(
      "schema" -> schemaTokens, "synthesis" -> synthTokens,
      "eval" -> evalTokens, "validate" -> validateTokens)
    StructuredView(table, schemaRanked, breakdown.values.sum, breakdown)
  }
}
