package perfbench

import scala.collection.mutable
import repro.core.SchemaSynthesis
import repro.docs.{DocLake, Naming, RenderedDoc}
import repro.fn.{Extractor, Synthesizer}
import repro.llm.{Profile, SimLM}
import repro.util.Rng
import repro.ws.Aggregation

/** Timed calls into the public functions of the `docs`, `llm`, `fn` and `ws`
  * layers, made on each cell's own inputs: its sample, its candidates and
  * (the first `lakeProbeDocs` of) its lake documents.
  *
  * The probes replay what a Code view does before its lake pass. Their token
  * sums must equal the view's `tokenBreakdown`; if they do not, the numbers
  * would describe a different program, so the probe fails.
  */
final class Probes(lakeProbeDocs: Int) {
  import Lakes.SystemSeed

  private val sums = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
  private def add(key: String, v: Double): Unit = sums(key) += v
  private def timed[T](key: String)(body: => T): T = {
    val t0 = System.nanoTime()
    val r  = body
    add(key, (System.nanoTime() - t0).toDouble)
    r
  }

  private val rendered = mutable.Map.empty[(String, Seq[Long]), Seq[RenderedDoc]]

  /** The first documents of a cell's lake, rendered once per setting. */
  private def lakeDocs(cell: Cell): Seq[RenderedDoc] = {
    val idx = cell.lakeIdx.take(lakeProbeDocs)
    rendered.getOrElseUpdate((cell.setting.name, idx), {
      val n    = idx.size
      val docs = timed("render_ns")(idx.map(Lakes.render(cell.setting, _)))
      add("render_docs", n)
      add("render_chars", docs.map(_.text.length.toDouble).sum)
      docs
    })
  }

  /** Probes one cell; `breakdown` is the tokenBreakdown of its reference view. */
  def probe(cell: Cell, breakdown: Map[String, Long]): Unit = {
    val s    = cell.setting
    val lm   = SimLM(Profile.davinci, s, SystemSeed)
    val docs = lakeDocs(cell)
    cell.code match {
      case Some(call) => probeCode(cell, call, lm, docs, breakdown)
      case None =>
        cell.closedAttrs match {
          case None =>
            add("calls_open", cell.lakeIdx.size)
            timed("open_ns")(docs.foreach(d => lm.openExtract(d.id, d.text)))
            add("open_probe_calls", docs.size)
          case Some(attrs) =>
            add("calls_closed", cell.lakeIdx.size.toDouble * attrs.size)
            timed("closed_ns")(docs.foreach(d => attrs.foreach(a => lm.closedExtract(d.id, d.text, a))))
            add("closed_probe_calls", docs.size.toDouble * attrs.size)
        }
        breakdown.foreach { case (k, v) => add(s"tokens_$k", v.toDouble) }
    }
  }

  private def probeCode(cell: Cell, call: CodeCall, lm: SimLM, docs: Seq[RenderedDoc],
                        breakdown: Map[String, Long]): Unit = {
    val s      = cell.setting
    val cfg    = call.cfg
    val sample = DocLake.sample(s, cfg.sampleDocs, SystemSeed)

    val (ranked, schemaTokens) = call.givenSchema match {
      case Some(attrs) => (attrs.map(Naming.normalize), 0L)
      case None =>
        val r = timed("open_ns")(SchemaSynthesis.synthesize(sample, lm))
        add("calls_open", sample.size); add("open_probe_calls", sample.size)
        (r.ranked, r.tokens)
    }
    val attrs = if (call.givenSchema.isDefined) ranked else ranked.take(call.k)

    var synthTokens = 0L
    var evalTokens  = 0L
    attrs.foreach { attr =>
      val spec = s.attrByName(attr)
      val (cands, t) = timed("synth_ns") {
        if (cfg.singleFunction) {
          val doc = spec.flatMap(sp => sample.find(_.gold.contains(sp.name)))
          val r = Synthesizer.synthesize(spec, attr, doc, Synthesizer.PA, Profile.davinci,
            Rng(SystemSeed).derive("synth", attr, "single"))
          (Seq(r.extractor), r.tokens)
        } else Synthesizer.candidates(spec, attr, sample, cfg.perPrompt, Profile.davinci,
          SystemSeed, cfg.prompts)
      }
      synthTokens += t
      add("synth_attrs", 1)
      add("candidates", cands.size)
      add("broken", cands.count(_.isInstanceOf[Extractor.Broken]))

      val (kept, e) =
        if (cfg.singleFunction) (cands, 1.0)
        else {
          val labeled = timed("closed_ns")(sample.map(d => lm.closedExtract(d.id, d.text, attr)))
          add("calls_closed", sample.size); add("closed_probe_calls", sample.size)
          evalTokens += labeled.map(_._2).sum
          val labels = labeled.map(_._1)
          val e      = Aggregation.estimateE(labels)
          val outs   = cands.map(c => sample.map(d => c.extract(d.text)))
          val (idx, _) = timed("select_ns")(Aggregation.selectFunctions(outs, labels, e, cfg.mode))
          add("select_attrs", 1)
          (idx.map(cands), e)
        }
      add("kept", kept.size)

      if (kept.nonEmpty) {
        add("extract_pairs", kept.size.toDouble * cell.lakeIdx.size)
        val votes = timed("extract_ns")(docs.map(d => kept.map(_.extract(d.text)).toIndexedSeq))
        add("extract_probe_pairs", kept.size.toDouble * docs.size)
        add("extract_empty", votes.map(_.count(_.isEmpty)).sum)
        if (!cfg.singleFunction) {
          val rows = docs.map(_.id).zip(votes)
          timed("aggregate_ns")(Aggregation.aggregate(rows, e, cfg.mode))
          add("aggregate_attrs", 1)
          val interpreted = votes.map(v => Aggregation.bucketRow(v.map(Aggregation.interpretVote(_, e, cfg.mode))))
          add("votes", interpreted.map(_.size).sum)
          add("abstains", interpreted.map(_.count(_.isEmpty)).sum)
        }
      }
    }

    val probed = Map("schema" -> schemaTokens, "synthesis" -> synthTokens, "eval" -> evalTokens)
    probed.foreach { case (k, v) =>
      val inView = breakdown.getOrElse(k, 0L)
      if (v != inView)
        throw new IllegalStateException(
          s"${cell.label}: probe $k tokens $v != view tokenBreakdown($k) $inView; " +
          "the probes no longer replay this program's plan")
    }
    breakdown.foreach { case (k, v) => add(s"tokens_$k", v.toDouble) }
  }

  private def ratio(a: String, b: String, scale: Double = 1.0): Double =
    if (sums(b) == 0) 0.0 else sums(a) / sums(b) * scale

  /** Per-layer metrics for one pass over the probed cells. */
  def metrics: Seq[(String, Double, String)] = Seq(
    ("docs.render_us_per_doc", ratio("render_ns", "render_docs", 1e-3), "us"),
    ("docs.chars_per_doc", ratio("render_chars", "render_docs"), "chars"),
    ("llm.open_extract_us_per_doc", ratio("open_ns", "open_probe_calls", 1e-3), "us"),
    ("llm.closed_extract_us_per_call", ratio("closed_ns", "closed_probe_calls", 1e-3), "us"),
    ("llm.calls.open", sums("calls_open"), "count"),
    ("llm.calls.closed", sums("calls_closed"), "count"),
  ) ++ Seq("schema", "synthesis", "eval", "validate", "direct", "closed").map(k =>
    (s"llm.tokens.$k", sums(s"tokens_$k"), "tokens")
  ) ++ Seq(
    ("fn.synth_ms_per_attr", ratio("synth_ns", "synth_attrs", 1e-6), "ms"),
    ("fn.candidates", sums("candidates"), "count"),
    ("fn.broken", sums("broken"), "count"),
    ("fn.kept", sums("kept"), "count"),
    ("fn.kept_ratio", ratio("kept", "candidates"), "ratio"),
    ("fn.extract_pairs", sums("extract_pairs"), "count"),
    ("fn.extract_us_per_pair", ratio("extract_ns", "extract_probe_pairs", 1e-3), "us"),
    ("fn.empty_frac", ratio("extract_empty", "extract_probe_pairs"), "ratio"),
    ("ws.select_ms_per_attr", ratio("select_ns", "select_attrs", 1e-6), "ms"),
    ("ws.aggregate_ms_per_attr", ratio("aggregate_ns", "aggregate_attrs", 1e-6), "ms"),
    ("ws.abstain_frac", ratio("abstains", "votes"), "ratio"),
  )
}
