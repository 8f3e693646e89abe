package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CodeConfig, EvaporateCode, EvaporateDirect, StructuredView}
import repro.baselines.{DomBaselines, QaSpanBaseline}
import repro.docs.{Corpora, DocGen, Setting}
import repro.fn.Synthesizer
import repro.llm.Profile
import repro.util.CostModel
import repro.ws.Aggregation
import Harness.pct

/** One entry point per paper table. Jobs (`jobs/TableNJob`) and benches
  * (`bench/.../TableNBench`) both call these, so the printed numbers are
  * produced by exactly one code path.
  *
  * Experiment scale: 100-document lakes per setting (60 per SWDE site in
  * Table 2), seed 42 throughout; Direct quality is measured on the first 10
  * documents exactly as the paper does for cost reasons (Table 3 caption),
  * with token costs extrapolated to the paper's per-10k-documents column.
  */
object Tables {

  val Seed: Int       = 42
  val LakeDocs: Int   = 100
  val SiteDocs: Int   = 60
  val TrainDocs: Int  = 30
  val EvalSample: Int = 10

  private def lake(spark: SparkSession, setting: Setting, n: Int = LakeDocs): (DataFrame, DataFrame) =
    Harness.lake(spark, setting, n, Seed)

  def tuplesDf(spark: SparkSession, tuples: Seq[(String, String, String)]): DataFrame =
    StructuredView.tuplesDf(spark, tuples)

  /** The paper's 10-document protocol (Table 3 caption): a lake, its gold or
    * a view restricted to the setting's first `EvalSample` documents. Direct
    * is too expensive to run on a whole lake, so it runs on the sampled lake;
    * Code(+) runs its functions over the whole lake and is scored on the
    * sample, for a fair comparison.
    */
  private def sample(s: Setting, df: DataFrame): DataFrame =
    Harness.restrict(df, Harness.sampleIds(s, EvalSample))

  // ========================================================= group means

  /** Column means of metric rows, each column summed in row order. */
  private def means(rows: Seq[Seq[Double]]): Seq[Double] =
    rows.transpose.map(_.sum / rows.size)

  /** Per-group column means of per-setting metric rows, in `groups` order
    * (the paper's SWDE rows average their sites). Within a group the rows
    * are summed in the order given, `Corpora.all` order in every table, so
    * the rounded figures are reproducible to the last digit.
    */
  private def groupMeans(perSetting: Seq[(Setting, Seq[Double])],
                         groups: Seq[String] = PaperNumbers.groups): Seq[(String, Seq[Double])] = {
    val byGroup = perSetting.groupBy(_._1.group)
    groups.map(g => g -> means(byGroup(g).map(_._2)))
  }

  // ====================================================== paper vs measured

  private def f(x: Double): String = f"$x%6.1f"

  /** A paper-vs-measured cell; `—` where the paper reports no number. */
  private def pm(paper: Double, measured: Double): String =
    s"${if (paper.isNaN) "     —" else f(paper)} ${f(measured)}"

  private def pmCells(paper: Seq[Double], measured: Seq[Double]): Seq[String] =
    paper.zip(measured).map { case (p, m) => pm(p, m) }

  /** The `paper measured` header line under `cols` cell columns. */
  private def pmRule(labelWidth: Int, cols: Int): String =
    " " * labelWidth + " | " + Seq.fill(cols)("paper   measured").mkString(" | ") + "\n"

  /** The paper-vs-measured grid of Tables 1–4, 6 and 7: `header`, then one
    * line per row holding its label and its cells.
    */
  private def grid(header: String, rows: Seq[(String, Seq[String])]): String =
    header + rows.map { case (label, cells) => s"$label | ${cells.mkString("  | ")}\n" }.mkString

  // ================================================================ Table 1

  final case class T1Row(group: String, closedF1: Double, openR: Double,
                         openP: Double, openF1: Double)

  /** Evaporate-Code+ quality across the five groups (full lakes). */
  def table1(spark: SparkSession): Seq[T1Row] =
    groupMeans(Corpora.all.map { s =>
      val (docs, gold) = lake(spark, s)
      val k      = s.goldAttrs.size
      val open   = Metrics.pairF1(EvaporateCode.run(spark, s, docs, Profile.davinci, Seed, k).table, gold)
      val closed = Metrics.closedTextF1(spark, EvaporateCode.run(spark, s, docs, Profile.davinci, Seed, k,
        givenSchema = Some(s.goldAttrs)).table, gold)
      s -> Seq(closed, open.recall, open.precision, open.f1)
    }).map { case (g, Seq(c, r, p, o)) => T1Row(g, pct(c), pct(r), pct(p), pct(o)) }

  def renderTable1(rows: Seq[T1Row]): String = {
    val measured = rows.map(r => Seq(r.closedF1, r.openR, r.openP, r.openF1))
    grid("Table 1 — Evaporate-Code+ quality (ClosedIE Text F1, OpenIE Pair R/P/F1)\n" +
      f"${"Source"}%-17s | ${"Closed"}%-15s | ${"Open R"}%-15s | ${"Open P"}%-15s | ${"Open F1"}%-15s\n" +
      pmRule(17, 4),
      rows.zip(measured).map { case (r, m) => (f"${r.group}%-17s", pmCells(PaperNumbers.table1(r.group), m)) } :+
        (f"${"Average"}%-17s", pmCells(PaperNumbers.table1Average, means(measured))))
  }

  // ================================================================ Table 2

  final case class T2Row(system: String, movieClosed: Double, movieOpen: Double,
                         uniClosed: Double, uniOpen: Double)

  /** Per-site (closed Text F1, open Pair F1) of a DOM baseline that reads a
    * held-out site with the label map `labelsOf(site)`.
    */
  private def domScores(spark: SparkSession, sites: Seq[Setting], model: DomBaselines.Model,
                        labelsOf: Setting => DomBaselines.LabelMap): Seq[Seq[Double]] =
    sites.map { test =>
      val labels    = labelsOf(test)
      val docs      = DocGen.corpus(test, SiteDocs, Seed)
      val (_, gold) = lake(spark, test, SiteDocs)

      val openTuples = docs.flatMap(d => DomBaselines.openExtract(d, model, labels, Seed))
      val open       = Metrics.pairF1(tuplesDf(spark, openTuples), gold)

      val closedTuples = docs.flatMap(d =>
        test.goldAttrs.zip(DomBaselines.closedExtract(d, test.goldAttrs, model, labels, Seed))
          .collect { case (a, v) if v.nonEmpty => (d.id, a, v) })
      val closed = Metrics.closedTextF1(spark, tuplesDf(spark, closedTuples), gold)
      Seq(closed, open.f1)
    }

  /** Per-site (closed Text F1, open Pair F1) of an Evaporate system, both
    * scored on the 10-document sample: `run(site, docs, attrs)` runs it open
    * (`attrs` = None) or closed on the given attributes.
    */
  private def evaporateScores(spark: SparkSession, sites: Seq[Setting],
      run: (Setting, DataFrame, Option[Seq[String]]) => StructuredView): Seq[Seq[Double]] =
    sites.map { s =>
      val (docs, gold) = lake(spark, s, SiteDocs)
      val open   = Metrics.pairF1(sample(s, run(s, docs, None).table), sample(s, gold))
      val closed = Metrics.closedTextF1(spark, sample(s, run(s, docs, Some(s.goldAttrs)).table), sample(s, gold))
      Seq(closed, open.f1)
    }

  /** SoTA comparison on the SWDE verticals. */
  def table2(spark: SparkSession): Seq[T2Row] = {
    def row(system: String, scores: Seq[Setting] => Seq[Seq[Double]]): T2Row = {
      val Seq(mc, mo) = means(scores(Corpora.movieSites))
      val Seq(uc, uo) = means(scores(Corpora.uniSites))
      T2Row(system, pct(mc), pct(mo), pct(uc), pct(uo))
    }
    // Each site's label map, trained once on the other sites of its vertical:
    // `train` does not read the model, so the three trained baselines share it.
    val trained = Seq(Corpora.movieSites, Corpora.uniSites).flatMap(sites => sites.map(test =>
      test.name -> DomBaselines.train(sites.filterNot(_.name == test.name)
        .flatMap(s => DocGen.corpus(s, TrainDocs, Seed).map((s, _)))))).toMap
    val baselineRows = Seq(
      DomBaselines.ZeroShotCeres, DomBaselines.RobertaBase,
      DomBaselines.RobertaStructural, DomBaselines.DomLM).map { m =>
      row(m.name, domScores(spark, _, m, s =>
        if (m == DomBaselines.ZeroShotCeres) DomBaselines.LabelMap(Map.empty) else trained(s.name)))
    }
    def direct(s: Setting, docs: DataFrame, attrs: Option[Seq[String]]): StructuredView = attrs match {
      case None    => EvaporateDirect.run(spark, s, sample(s, docs), Profile.davinci, Seed, s.goldAttrs.size)
      case Some(a) => EvaporateDirect.runClosed(spark, s, sample(s, docs), Profile.davinci, Seed, a)
    }
    def code(cfg: CodeConfig)(s: Setting, docs: DataFrame, attrs: Option[Seq[String]]): StructuredView =
      EvaporateCode.run(spark, s, docs, Profile.davinci, Seed, s.goldAttrs.size, cfg, attrs)
    val evaporateRows = Seq(
      "Evaporate-Direct" -> direct _,
      "Evaporate-Code"   -> code(CodeConfig(singleFunction = true)) _,
      "Evaporate-Code+"  -> code(CodeConfig()) _,
    ).map { case (name, run) => row(name, evaporateScores(spark, _, run)) }
    baselineRows ++ evaporateRows
  }

  def renderTable2(rows: Seq[T2Row]): String =
    grid("Table 2 — SWDE Movie / University vs. state of the art (Closed Text F1, Open Pair F1)\n" +
      f"${"System"}%-20s | Movie Closed     | Movie Open       | Univ Closed      | Univ Open\n" +
      pmRule(20, 4),
      rows.map(r => (f"${r.system}%-20s", pmCells(PaperNumbers.table2(r.system),
        Seq(r.movieClosed, r.movieOpen, r.uniClosed, r.uniOpen)))))

  // ================================================================ Table 3

  final case class T3Row(group: String, directF1: Double, directMTok: Double, directUsd: Double,
                         plusF1: Double, plusMTok: Double, plusUsd: Double,
                         deltaF1: Double, reduction: Double)

  /** Direct vs Code+ quality (10-doc sample) and cost per 10k documents.
    * Code+'s LLM tokens are fixed in the lake size, so its per-10k cost is
    * the run's own token count.
    */
  def table3(spark: SparkSession): Seq[T3Row] =
    groupMeans(Corpora.all.map { s =>
      val (docs, gold) = lake(spark, s)
      val direct = EvaporateDirect.run(spark, s, sample(s, docs), Profile.davinci, Seed, s.goldAttrs.size)
      val plus   = EvaporateCode.run(spark, s, docs, Profile.davinci, Seed, s.goldAttrs.size)
      s -> Seq(Metrics.pairF1(sample(s, direct.table), sample(s, gold)).f1,
        CostModel.per10kDocs(direct.tokens, EvalSample).toDouble,
        Metrics.pairF1(sample(s, plus.table), sample(s, gold)).f1, plus.tokens.toDouble)
    }).map { case (g, Seq(dF1, dTok, pF1, pTok)) =>
      T3Row(g,
        pct(dF1), dTok / 1e6, CostModel.dollars(dTok.toLong),
        pct(pF1), pTok / 1e6, CostModel.dollars(pTok.toLong),
        pct(pF1) - pct(dF1), dTok / math.max(1.0, pTok))
    }

  def renderTable3(rows: Seq[T3Row]): String = {
    val measured = rows.map(r => Seq(r.directF1, r.directMTok, r.directUsd, r.plusF1,
      r.plusMTok, r.plusUsd, r.deltaF1, r.reduction))
    val avg = means(measured)
    // The dollar columns (2 and 5) are printed only as averages, below the grid.
    def cells(paper: Seq[Double], m: Seq[Double]) =
      Seq(0, 1, 3, 4, 6).map(i => pm(paper(i), m(i))) :+ s"${f(paper(7))}x${f(m(7))}x"
    grid("Table 3 — Direct vs Code+: quality (Pair F1 on 10-doc sample) and cost per 10k documents\n" +
      f"${"Source"}%-17s | Direct F1        | Direct Mtok      | Code+ F1         | Code+ Mtok       | dF1              | reduction\n" +
      pmRule(17, 6),
      rows.zip(measured).map { case (r, m) => (f"${r.group}%-17s", cells(PaperNumbers.table3(r.group), m)) } :+
        (f"${"Average"}%-17s", cells(PaperNumbers.table3Average, avg))) +
      f"Dollar cost at $$0.02/1k tokens (text-davinci-003): Direct avg $$${avg(2)}%.0f, Code+ avg $$${avg(5)}%.2f per 10k docs.\n"
  }

  // ================================================================ Table 4

  final case class T4Row(group: String, mv: Double, ws: Double,
                         wsFilter: Double, wsFull: Double)

  /** Aggregation ablation: MV / WS / WS+Filter / WS+Abstain+Filter, all
    * four from one plan and one lake pass per setting.
    */
  def table4(spark: SparkSession): Seq[T4Row] = {
    val modes = Seq(Aggregation.MajorityVote, Aggregation.WsRaw,
      Aggregation.WsFilter, Aggregation.WsFull)
    groupMeans(Corpora.all.map { s =>
      val (docs, gold) = lake(spark, s)
      val plan = EvaporateCode.plan(s, Profile.davinci, Seed, s.goldAttrs.size)
      s -> EvaporateCode.apply(spark, plan, docs, modes).map(v => Metrics.pairF1(v.table, gold).f1)
    }).map { case (g, Seq(mv, ws, wsf, full)) => T4Row(g, pct(mv), pct(ws), pct(wsf), pct(full)) }
  }

  def renderTable4(rows: Seq[T4Row]): String = {
    val measured = rows.map(r => Seq(r.mv, r.ws, r.wsFilter, r.wsFull))
    grid("Table 4 — Aggregation strategies (OpenIE Pair F1)\n" +
      f"${"Source"}%-17s | MV               | WS               | WS+Filter        | WS+Abstain+Filter\n" +
      pmRule(17, 4),
      rows.zip(measured).map { case (r, m) => (f"${r.group}%-17s", pmCells(PaperNumbers.table4(r.group), m)) } :+
        (f"${"Average"}%-17s", pmCells(PaperNumbers.table4Average, means(measured))))
  }

  // ================================================================ Table 5

  final case class T5Row(model: String, direct: Seq[Double], plus: Seq[Double], schemaF1: Double)

  private val t5GroupOrder = Seq("FDA", "Wiki NBA", "SWDE Movie", "SWDE University", "Enron Emails")

  /** Alternate LLM providers: Direct / Code+ OpenIE on 10-doc samples plus
    * the schema-ID F1@k of the Code+ view's schema (averaged over all 16
    * settings).
    */
  def table5(spark: SparkSession): Seq[T5Row] = {
    Seq(Profile.gpt4, Profile.claude, Profile.jumbo).map { prof =>
      val per = Corpora.all.map { s =>
        val (docs, gold) = lake(spark, s)
        val k      = s.goldAttrs.size
        val direct = EvaporateDirect.run(spark, s, sample(s, docs), prof, Seed, k)
        val plus   = EvaporateCode.run(spark, s, docs, prof, Seed, k)
        s -> Seq(Metrics.pairF1(sample(s, direct.table), sample(s, gold)).f1,
          Metrics.pairF1(sample(s, plus.table), sample(s, gold)).f1,
          Metrics.f1AtK(plus.schema, s.goldAttrs, k))
      }
      val perGroup = groupMeans(per, t5GroupOrder).map(_._2)
      T5Row(prof.model, perGroup.map(m => pct(m(0))), perGroup.map(m => pct(m(1))),
        pct(means(per.map(_._2))(2)))
    }
  }

  def renderTable5(rows: Seq[T5Row], davinciSchemaF1: Double): String = {
    val sb = new StringBuilder
    sb.append("Table 5 — Alternate LLMs (OpenIE Pair F1, 10-doc samples); columns FDA, NBA, Movie, Univ, Enron\n")
    rows.foreach { r =>
      val (pd, pp, ps) = PaperNumbers.table5(r.model)
      sb.append(f"${r.model}%-18s Direct  paper: ${pd.map(f).mkString(" ")}   measured: ${r.direct.map(f).mkString(" ")}\n")
      sb.append(f"${""}%-18s Code+   paper: ${pp.map(f).mkString(" ")}   measured: ${r.plus.map(f).mkString(" ")}\n")
      sb.append(f"${""}%-18s Schema F1@k paper: ${f(ps)}   measured: ${f(r.schemaF1)}\n")
    }
    sb.append(f"text-davinci-003   Schema F1@k paper: ${f(PaperNumbers.davinciSchemaF1AtK)}   measured: ${f(davinciSchemaF1)}\n")
    sb.toString
  }

  /** Davinci's schema F1@k (§4.4.2 reference value, 71.9 in the paper).
    * A plan of `k` = 0 attributes is schema synthesis alone.
    */
  def davinciSchemaF1(spark: SparkSession): Double =
    pct(Corpora.all.map { s =>
      Metrics.f1AtK(EvaporateCode.plan(s, Profile.davinci, Seed, k = 0).schema, s.goldAttrs, s.goldAttrs.size)
    }.sum / Corpora.all.size)

  // ================================================================ Table 6

  final case class T6Row(group: String, nAttrs: Double, closedF1: Double)

  /** QA span-extractor ClosedIE baseline (DeBERTaV3-SQuAD2-like). */
  def table6(spark: SparkSession): Seq[T6Row] =
    groupMeans(Corpora.all.map { s =>
      val docs      = DocGen.corpus(s, LakeDocs, Seed)
      val (_, gold) = lake(spark, s)
      val tuples = docs.flatMap(d => s.goldAttrs.zip(QaSpanBaseline.extractAll(d.text, s.goldAttrs)).collect {
        case (a, v) if v.nonEmpty => (d.id, a, v)
      })
      s -> Seq(s.goldAttrs.size.toDouble, Metrics.closedTextF1(spark, tuplesDf(spark, tuples), gold))
    }).map { case (g, Seq(k, c)) => T6Row(g, k, pct(c)) }

  def renderTable6(rows: Seq[T6Row]): String =
    grid("Table 6 — QA span-extractor baseline (ClosedIE Text F1)\n" +
      f"${"Source"}%-17s | #attrs | paper   measured\n",
      rows.map { r =>
        val (pk, pf) = PaperNumbers.table6(r.group)
        (f"${r.group}%-17s | ${r.nAttrs}%4.0f($pk%2d)", Seq(pm(pf, r.closedF1)))
      })

  // ================================================================ Table 7

  final case class T7Row(group: String, nAttrs: Double, f1: Double, mTok: Double, usd: Double)

  /** Quality and cost of the LLM F's ClosedIE extraction (prompt E.2). */
  def table7(spark: SparkSession): Seq[T7Row] =
    groupMeans(Corpora.all.map { s =>
      val (docs, gold) = lake(spark, s)
      val view = EvaporateDirect.runClosed(spark, s, docs, Profile.davinci, Seed, s.goldAttrs)
      s -> Seq(s.goldAttrs.size.toDouble, Metrics.closedTextF1(spark, view.table, gold),
        CostModel.per10kDocs(view.tokens, LakeDocs).toDouble)
    }).map { case (g, Seq(k, c, tok)) => T7Row(g, k, pct(c), tok / 1e6, CostModel.dollars(tok.toLong)) }

  def renderTable7(rows: Seq[T7Row]): String = {
    val avg = means(rows.map(r => Seq(r.nAttrs, r.f1, r.mTok, r.usd)))
    def cells(paper: Seq[Double], m: Seq[Double]) =
      Seq(pm(paper(0), m(0)), pm(paper(1), m(1)), f"${paper(2)}%8.0f ${m(2)}%8.2f")
    grid("Table 7 — LLM F ClosedIE quality & cost per 10k documents\n" +
      f"${"Source"}%-17s | #attrs | F1 paper/meas    | Mtok paper/meas  | $$ paper/meas\n",
      rows.map { r =>
        val (pk, paper) = PaperNumbers.table7(r.group)
        (f"${r.group}%-17s | ${r.nAttrs}%4.0f($pk%2d)", cells(paper, Seq(r.f1, r.mTok, r.usd)))
      } :+ (f"${"Average"}%-17s | ${avg.head}%4.1f    ", cells(PaperNumbers.table7Average, avg.tail)))
  }

  // ======================================================== Figure 3 claims

  /** Analytic cost crossovers at the paper's scale (10k tokens/doc). */
  def costCurves(): String = {
    val docs  = CostModel.crossoverDocs(nAttrs = 10, docTokens = 10000)
    val attrs = CostModel.crossoverAttrs(nDocs = 10000, docTokens = 10000)
    f"Figure 3 crossovers (10k tokens/doc): docs@10attrs paper ~${PaperNumbers.crossoverDocs}%.0f measured $docs; " +
      f"attrs@10k-docs paper ~${PaperNumbers.crossoverAttrs}%.0f measured $attrs\n"
  }

  // =================================================== §4.4.1 micro: PA/PB

  final case class DiversityRow(prompts: String, movieF1: Double, uniF1: Double)

  /** Prompt-diversity ablation: synthesize with P_A only, P_B only, both. */
  def promptDiversity(spark: SparkSession): Seq[DiversityRow] = {
    val variants = Seq(
      ("PA only", Seq[Synthesizer.PromptKind](Synthesizer.PA), 10),
      ("PB only", Seq[Synthesizer.PromptKind](Synthesizer.PB), 10),
      ("PA + PB", Seq[Synthesizer.PromptKind](Synthesizer.PA, Synthesizer.PB), 5),
    )
    variants.map { case (name, prompts, perPrompt) =>
      val Seq(movie, uni) = Seq(Corpora.movieSites, Corpora.uniSites).map { sites =>
        means(sites.map { s =>
          val (docs, gold) = lake(spark, s)
          val view = EvaporateCode.run(spark, s, docs, Profile.davinci, Seed, s.goldAttrs.size,
            CodeConfig(perPrompt = perPrompt, prompts = prompts))
          Seq(Metrics.pairF1(view.table, gold).f1)
        }).head
      }
      DiversityRow(name, pct(movie), pct(uni))
    }
  }

  def renderDiversity(rows: Seq[DiversityRow]): String = {
    val sb = new StringBuilder
    sb.append("§4.4.1 — Prompt diversity ablation (OpenIE Pair F1; paper: single prompts are 8.5/8.0 points worse)\n")
    rows.foreach(r => sb.append(f"${r.prompts}%-8s  SWDE Movie ${f(r.movieF1)}  SWDE University ${f(r.uniF1)}\n"))
    sb.toString
  }
}
