package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.docs.{DocLake, Naming, Setting}
import repro.fn.{Extractor, ExtractorSet, Synthesizer}
import repro.llm.{Profile, SimLM}
import repro.util.Rng
import repro.ws.Aggregation

/** Configuration for the code-synthesis implementations.
  *
  * @param singleFunction Evaporate-Code (§3.2): one synthesized function per
  *                       attribute, applied as-is — no LLM verification, no
  *                       validation. When false this is Evaporate-Code+
  *                       (§3.3) under the given aggregation `mode`.
  * @param perPrompt      sample chunks per synthesis prompt template; with
  *                       the two templates P_A/P_B this yields 2×perPrompt
  *                       candidate functions per attribute
  */
final case class CodeConfig(
    perPrompt: Int = 5,
    mode: Aggregation.Mode = Aggregation.WsFull,
    singleFunction: Boolean = false,
    prompts: Seq[Synthesizer.PromptKind] = Seq(Synthesizer.PA, Synthesizer.PB),
) {
  /** Documents sampled for schema synthesis, function synthesis and D_eval:
    * the paper uses 10 for all three (§4.1).
    */
  final val sampleDocs = 10
}

/** The LLM-side work for one attribute: its candidate functions, their
  * outputs on D_eval (computed once per distinct candidate), the LLM's D_eval
  * labels and the presence rate `e` (Algorithm 1 steps 2–3). No labels means
  * the candidates are trusted as-is: Evaporate-Code, with no D_eval and no
  * validation.
  */
final case class AttrPlan(attr: String, candidates: Seq[Extractor], labels: Option[Seq[String]],
                          evalOutputs: Seq[Seq[String]], e: Double) {

  /** The candidates `mode` keeps (Algorithm 1 steps 4–5). */
  def keep(mode: Aggregation.Mode): Seq[Extractor] = labels match {
    case None    => candidates
    case Some(l) => Aggregation.selectFunctions(evalOutputs, l, e, mode)._1.map(candidates)
  }
}

/** Everything Evaporate-Code(+) asks the LLM before it reads the lake: the
  * ranked schema, each extracted attribute's plan, its schema, synthesis and
  * eval `tokens`, and the `lm` that validates the extracted values (E.4).
  */
final case class CodePlan(schema: Seq[String], attrs: Seq[AttrPlan], lm: SimLM,
                          tokens: Map[String, Long])

/** Evaporate-Code and Evaporate-Code+ (§3.2–3.3).
  *
  * `plan` does the LLM work (schema synthesis, function synthesis, D_eval
  * labeling) once on a small driver-side sample and never reads the lake;
  * `apply` ships the kept extractors in a single Spark UDF over the whole
  * lake and aggregates their votes. The LLM token cost is *fixed* in the
  * number of documents, the paper's headline property.
  */
object EvaporateCode {

  /** @param givenSchema when set (ClosedIE), skip schema synthesis and
    *                    extract exactly these attributes
    * @param k           number of top-ranked schema attributes to extract
    *                    (ignored when `givenSchema` is set)
    */
  def run(spark: SparkSession, setting: Setting, docs: DataFrame, profile: Profile,
          seed: Long, k: Int, cfg: CodeConfig = CodeConfig(),
          givenSchema: Option[Seq[String]] = None): StructuredView =
    apply(spark, plan(setting, profile, seed, k, cfg, givenSchema), docs, Seq(cfg.mode)).head

  /** Schema, candidate functions and their D_eval scores; `cfg.mode` is
    * not read, so one plan serves every aggregation mode.
    */
  def plan(setting: Setting, profile: Profile, seed: Long, k: Int, cfg: CodeConfig = CodeConfig(),
           givenSchema: Option[Seq[String]] = None): CodePlan = {
    val lm     = SimLM(profile, setting, seed)
    val sample = DocLake.sample(setting, cfg.sampleDocs, seed)

    val (schema, schemaTokens) = givenSchema match {
      case Some(attrs) => (attrs.map(Naming.normalize), 0L)
      case None =>
        val r = SchemaSynthesis.synthesize(sample, lm)
        (r.ranked, r.tokens)
    }
    val attrs = if (givenSchema.isDefined) schema else schema.take(k)

    val planned: Seq[(AttrPlan, Long, Long)] = attrs.map { attr => // (plan, synth, eval tokens)
      val spec = setting.attrByName(attr)
      if (cfg.singleFunction) {
        val doc = spec.flatMap(s => sample.find(_.gold.contains(s.name)))
        val s = Synthesizer.synthesize(spec, attr, doc, Synthesizer.PA, profile,
          Rng(seed).derive("synth", attr, "single"))
        (AttrPlan(attr, Seq(s.extractor), None, Nil, 1.0), s.tokens, 0L)
      } else {
        val (cands, synthTokens) = Synthesizer.candidates(spec, attr, sample, cfg.perPrompt,
          profile, seed, cfg.prompts)
        val labeled = sample.map(d => lm.closedExtract(d.id, d.text, attr))
        val labels  = labeled.map(_._1)
        val candSet = new ExtractorSet(cands)
        val perDoc  = sample.map(d => candSet.extract(d.text))
        (AttrPlan(attr, cands, Some(labels), cands.indices.map(i => perDoc.map(_(i))),
          Aggregation.estimateE(labels)), synthTokens, labeled.map(_._2).sum)
      }
    }

    CodePlan(schema, planned.map(_._1), lm, Map("schema" -> schemaTokens,
      "synthesis" -> planned.map(_._2).sum, "eval" -> planned.map(_._3).sum))
  }

  /** One view per mode, in `modes` order, from one lake pass that runs each
    * distinct function any mode keeps once per document.
    */
  def apply(spark: SparkSession, plan: CodePlan, docs: DataFrame,
            modes: Seq[Aggregation.Mode]): Seq[StructuredView] = {

    // -- 1. per mode, the attributes that keep at least one function --------
    val kept: Seq[Seq[(AttrPlan, Seq[Extractor])]] =
      modes.map(m => plan.attrs.map(a => (a, a.keep(m))).filter(_._2.nonEmpty))

    // -- 2. one pass over the lake evaluating the distinct kept functions as
    // one set per document; every vote slot indexes into its outputs --------
    val lakeFns    = kept.flatten.flatMap(_._2).distinct.toIndexedSeq
    val slotOf     = lakeFns.zipWithIndex.toMap
    val lakeSet    = new ExtractorSet(lakeFns)
    val outputsUdf = udf { (text: String) => lakeSet.extract(text) }
    val outputs: Array[(String, IndexedSeq[String])] =
      if (lakeFns.isEmpty) Array.empty
      else docs.select(col("doc_id"), outputsUdf(col("text")))
        .collect().map(r => (r.getString(0), r.getSeq[String](1).toIndexedSeq))

    modes.zip(kept).map { case (mode, active) =>
      // -- 3. per-attribute aggregation --------------------------------------
      val predictions: Seq[(AttrPlan, Seq[(String, String, String)])] = active.map { case (a, fns) =>
        val slots = fns.map(slotOf).toIndexedSeq
        val rows  = outputs.toSeq.map { case (id, outs) => (id, slots.map(outs)) }
        a -> Aggregation.aggregate(rows, a.e, mode)
          .collect { case (id, v) if v.nonEmpty => (id, a.attr, v) }.toSeq
      }

      // -- 4. unsupervised schema validation (prompt E.4) --------------------
      val verdicts: Seq[(Boolean, Long)] = predictions.map { case (a, tuples) =>
        val vals = tuples.take(5).map(_._3)
        if (a.labels.isEmpty) (true, 0L) // Evaporate-Code trusts its function
        else if (vals.isEmpty) (false, 0L)
        else plan.lm.validateAttr(a.attr, vals)
      }

      val finalTuples = predictions.zip(verdicts).flatMap { case ((_, t), (ok, _)) => if (ok) t else Nil }
      StructuredView(StructuredView.tuplesDf(spark, finalTuples), plan.schema,
        plan.tokens + ("validate" -> verdicts.map(_._2).sum))
    }
  }
}
