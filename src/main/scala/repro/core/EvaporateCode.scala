package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.unsafe.types.UTF8String
import repro.docs.{DocLake, Naming, Setting}
import repro.fn.{Extractor, ExtractorSet, Synthesizer}
import repro.llm.{Profile, SimLM}
import repro.util.Rng
import repro.ws.{Aggregation, VoteMatrix}

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
  * `apply` runs the kept extractors over the whole lake in one Spark job,
  * whose tasks return their documents' outputs interned to `Int` ids, and
  * aggregates those votes on the driver without turning them back into
  * strings. The LLM token cost is *fixed* in the number of documents, the
  * paper's headline property.
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

    // D_eval labels (prompt E.2): one call per sample document for every attribute.
    val labeled: Seq[Seq[(String, Long)]] =
      if (cfg.singleFunction) Nil else sample.map(d => lm.closedExtract(d.id, d.text, attrs))

    // (plan, synth tokens, eval tokens) per attribute
    val planned: Seq[(AttrPlan, Long, Long)] = attrs.zipWithIndex.map { case (attr, i) =>
      val spec = setting.attrByName(attr)
      if (cfg.singleFunction) {
        val doc = spec.flatMap(s => sample.find(_.gold.contains(s.name)))
        val s = Synthesizer.synthesize(spec, attr, doc, Synthesizer.PA, profile,
          Rng(seed).derive("synth", attr, "single"))
        (AttrPlan(attr, Seq(s.extractor), None, Nil, 1.0), s.tokens, 0L)
      } else {
        val (cands, synthTokens) = Synthesizer.candidates(spec, attr, sample, cfg.perPrompt,
          profile, seed, cfg.prompts)
        val labels  = labeled.map(_(i)._1)
        val candSet = new ExtractorSet(cands)
        val perDoc  = sample.map(d => candSet.extract(d.text))
        (AttrPlan(attr, cands, Some(labels), cands.indices.map(c => perDoc.map(_(c))),
          Aggregation.estimateE(labels)), synthTokens, labeled.map(_(i)._2).sum)
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
    // one set per document; every vote slot is a column of its vote matrix --
    val lakeFns         = kept.flatten.flatMap(_._2).distinct.toIndexedSeq
    val slotOf          = lakeFns.zipWithIndex.toMap
    val (docIds, votes) = lakePass(docs, lakeFns)
    val order           = mapOrder(docIds)

    // One UTF8String per doc_id and per distinct value, shared by every row
    // and view that holds it.
    val docUtf   = docIds.map(UTF8String.fromString)
    val valueUtf = new Array[UTF8String](votes.nValues)
    def value(id: Int): UTF8String = {
      if (valueUtf(id) == null) valueUtf(id) = UTF8String.fromString(votes.value(id))
      valueUtf(id)
    }

    modes.zip(kept).map { case (mode, active) =>
      // -- 3. per-attribute aggregation: each row's predicted value id, and
      // the rows listed with a value, in view order ---------------------------
      val predictions: Seq[(AttrPlan, Array[Int], Array[Int])] = active.map { case (a, fns) =>
        val ids = Aggregation.predict(votes, fns.map(slotOf).toIndexedSeq, a.e, mode)
        (a, ids, order.filter(d => votes.value(ids(d)).nonEmpty))
      }

      // -- 4. unsupervised schema validation (prompt E.4) --------------------
      val verdicts: Seq[(Boolean, Long)] = predictions.map { case (a, ids, listed) =>
        val vals = listed.take(5).map(d => votes.value(ids(d))).toSeq
        if (a.labels.isEmpty) (true, 0L) // Evaporate-Code trusts its function
        else if (vals.isEmpty) (false, 0L)
        else plan.lm.validateAttr(a.attr, vals)
      }

      val rows = predictions.zip(verdicts).flatMap { case ((a, ids, listed), (ok, _)) =>
        val attr = UTF8String.fromString(a.attr)
        if (ok) listed.map(d => InternalRow(docUtf(d), attr, value(ids(d)))) else Nil
      }
      StructuredView(TupleSource.load(spark, rows.toArray), plan.schema,
        plan.tokens + ("validate" -> verdicts.map(_._2).sum))
    }
  }

  /** Every lake row's doc_id and its outputs of `fns`, interned, in the
    * lake's row order. One Spark job, none when `fns` is empty: each task
    * reads its partition's rows (`DocLake.perPartition`), runs `fns` as one
    * set on each, and interns the outputs into its own dictionary; the
    * driver merges the partitions' dictionaries once.
    */
  private def lakePass(docs: DataFrame, fns: IndexedSeq[Extractor]): (Array[String], VoteMatrix) = {
    val nFns = fns.size
    if (nFns == 0) return (Array.empty, new VoteMatrix.Builder(0).result())
    val set = new ExtractorSet(fns)
    val parts = DocLake.perPartition(docs) { rows =>
      val ids   = Array.newBuilder[String]
      val votes = new VoteMatrix.Builder(nFns)
      rows.foreach { case (id, text) =>
        ids += id
        votes.add(set.extract(text))
      }
      (ids.result(), votes.result())
    }
    (parts.flatMap(_._1), VoteMatrix.concat(nFns, parts.toSeq.map(_._2)))
  }

  /** The order a view lists each attribute's tuples in, as lake row
    * indices: the iteration order of an immutable `Map` keyed by doc_id and
    * built from the rows in lake order, so a repeated doc_id keeps its first
    * key's place and lists its last row. E.4 validates an attribute's first
    * five tuples in this order, so it fixes the `validate` tokens; a defined
    * sample would replace this one helper.
    */
  private def mapOrder(docIds: Array[String]): Array[Int] =
    docIds.indices.map(d => docIds(d) -> d).toMap.valuesIterator.toArray
}
