package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
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
        val (evalFns, evalSlots) = Extractor.distinctSlots(cands)
        val evalDistinct  = evalFns.map(c => sample.map(d => c.extract(d.text)))
        val evalOutputs   = evalSlots.map(evalDistinct)
        val (keptIdx, _)  = Aggregation.selectFunctions(evalOutputs, lmLabels, e, cfg.mode)
        (attr, keptIdx.map(cands), e)
      }
    }

    val active = plan.filter(_._2.nonEmpty)

    // -- 3. one pass over the lake applying each distinct surviving function
    // once per document; attributes' vote slots index into its outputs ------
    val activeAttrs = active.map(_._1)
    val (lakeFns, lakeSlots) = Extractor.distinctSlots(active.flatMap(_._2))
    val attrSlots: Seq[IndexedSeq[Int]] = {
      val ends = active.map(_._2.size).scanLeft(0)(_ + _)
      ends.zip(ends.tail).map { case (from, until) => lakeSlots.slice(from, until) }
    }
    val outputsUdf = udf { (text: String) => lakeFns.map(_.extract(text)) }
    val outputs: Array[(String, IndexedSeq[String])] =
      if (active.isEmpty) Array.empty
      else docs.select(col("doc_id"), outputsUdf(col("text")))
        .collect().map(r => (r.getString(0), r.getSeq[String](1).toIndexedSeq))

    // -- 4. per-attribute aggregation ---------------------------------------
    val eByAttr = active.map { case (a, _, e) => a -> e }.toMap
    val predictions: Seq[(String, String, String)] = activeAttrs.zip(attrSlots).flatMap {
      case (attr, slots) =>
        val rows = outputs.toSeq.map { case (id, outs) => (id, slots.map(outs)) }
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
        val vals = predictions.iterator.collect { case (_, `a`, v) => v }.take(5).toSeq
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
