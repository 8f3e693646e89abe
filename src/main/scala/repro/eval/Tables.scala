package repro.eval

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CodeConfig, EvaporateCode, StructuredView}
import repro.baselines.{DomBaselines, QaSpanBaseline}
import repro.docs.{Corpora, DocGen, Setting}
import repro.fn.Synthesizer
import repro.llm.Profile
import repro.util.CostModel
import repro.ws.Aggregation

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

  // Lakes are cached across tables within one JVM (bench suites share it).
  private val lakeCache = mutable.Map.empty[(String, Int), (DataFrame, DataFrame)]

  def lake(spark: SparkSession, setting: Setting, n: Int = LakeDocs): (DataFrame, DataFrame) =
    synchronized {
      lakeCache.getOrElseUpdate((setting.name, n), Harness.lake(spark, setting, n, Seed))
    }

  def tuplesDf(spark: SparkSession, tuples: Seq[(String, String, String)]): DataFrame =
    StructuredView.tuplesDf(spark, tuples)

  private def byGroup(perSetting: Seq[(Setting, Double)]): Map[String, Double] =
    perSetting.groupBy(_._1.group).map { case (g, vs) =>
      g -> vs.map(_._2).sum / vs.size
    }

  private def f(x: Double): String = f"$x%6.1f"

  // ================================================================ Table 1

  final case class T1Row(group: String, closedF1: Double, openR: Double,
                         openP: Double, openF1: Double)

  /** Evaporate-Code+ quality across the five groups (full lakes). */
  def table1(spark: SparkSession): Seq[T1Row] = {
    val per = Corpora.all.map { s =>
      val (docs, gold) = lake(spark, s)
      val open         = Harness.codeOpen(spark, s, docs, gold, Profile.davinci, Seed)
      val (_, closed)  = Harness.codeClosed(spark, s, docs, gold, Profile.davinci, Seed)
      (s, closed, open.prf)
    }
    val c = byGroup(per.map(p => (p._1, p._2)))
    val r = byGroup(per.map(p => (p._1, p._3.recall)))
    val p = byGroup(per.map(p => (p._1, p._3.precision)))
    val o = byGroup(per.map(p => (p._1, p._3.f1)))
    PaperNumbers.groups.map(g =>
      T1Row(g, Harness.pct(c(g)), Harness.pct(r(g)), Harness.pct(p(g)), Harness.pct(o(g))))
  }

  def renderTable1(rows: Seq[T1Row]): String = {
    val sb = new StringBuilder
    sb.append("Table 1 — Evaporate-Code+ quality (ClosedIE Text F1, OpenIE Pair R/P/F1)\n")
    sb.append(f"${"Source"}%-17s | ${"Closed"}%-15s | ${"Open R"}%-15s | ${"Open P"}%-15s | ${"Open F1"}%-15s\n")
    sb.append(f"${""}%-17s | paper   measured | paper   measured | paper   measured | paper   measured\n")
    def line(g: String, pap: (Double, Double, Double, Double), m: T1Row): Unit =
      sb.append(f"$g%-17s | ${f(pap._1)} ${f(m.closedF1)}  | ${f(pap._2)} ${f(m.openR)}  | ${f(pap._3)} ${f(m.openP)}  | ${f(pap._4)} ${f(m.openF1)}\n")
    rows.foreach(r => line(r.group, PaperNumbers.table1(r.group), r))
    val avg = T1Row("Average",
      rows.map(_.closedF1).sum / rows.size, rows.map(_.openR).sum / rows.size,
      rows.map(_.openP).sum / rows.size, rows.map(_.openF1).sum / rows.size)
    line("Average", (82.3, 58.9, 78.5, 66.7), avg)
    sb.toString
  }

  // ================================================================ Table 2

  final case class T2Row(system: String, movieClosed: Double, movieOpen: Double,
                         uniClosed: Double, uniOpen: Double)

  private def domScores(spark: SparkSession, sites: Seq[Setting],
                        model: DomBaselines.Model): (Double, Double) = {
    val scores = sites.map { test =>
      val labels =
        if (model == DomBaselines.ZeroShotCeres) DomBaselines.LabelMap(Map.empty)
        else DomBaselines.train(
          sites.filterNot(_.name == test.name)
            .flatMap(s => DocGen.corpus(s, TrainDocs, Seed).map((s, _))))
      val docs      = DocGen.corpus(test, SiteDocs, Seed)
      val (_, gold) = lake(spark, test, SiteDocs)

      val openTuples = docs.flatMap(d => DomBaselines.openExtract(d, model, labels, Seed))
      val open       = Metrics.pairF1(tuplesDf(spark, openTuples), gold)

      val closedTuples = docs.flatMap(d => test.goldAttrs.flatMap { a =>
        val v = DomBaselines.closedExtract(d, a, model, labels, Seed)
        if (v.nonEmpty) Some((d.id, a, v)) else None
      })
      val closed = Metrics.closedTextF1(spark, tuplesDf(spark, closedTuples), gold)
      (closed, open.f1)
    }
    (scores.map(_._1).sum / scores.size, scores.map(_._2).sum / scores.size)
  }

  /** Evaporate systems are evaluated on the paper's 10-document samples
    * (the Table 2/3 protocol — Direct is too expensive to run on full
    * benchmarks, and Code+ is reported on the same sample for fairness).
    * Code paths still run their synthesized functions over the full lake.
    */
  private def evaporateVerticalScores(spark: SparkSession, sites: Seq[Setting],
                                      cfg: Option[CodeConfig]): (Double, Double) = {
    val scores = sites.map { s =>
      val (docs, gold) = lake(spark, s, SiteDocs)
      val ids    = Harness.sampleIds(s, EvalSample)
      val docs10 = Harness.restrict(docs, ids)
      val gold10 = Harness.restrict(gold, ids)
      cfg match {
        case None =>
          val open        = Harness.directOpen(spark, s, docs10, gold10, Profile.davinci, Seed)
          val (_, closed) = Harness.directClosed(spark, s, docs10, gold10, Profile.davinci, Seed)
          (closed, open.prf.f1)
        case Some(c) =>
          val open = Harness.codeOpen(spark, s, docs, gold, Profile.davinci, Seed, c,
            evalIds = Some(ids))
          val v = EvaporateCode.run(spark, s, docs, Profile.davinci, Seed,
            s.goldAttrs.size, c, givenSchema = Some(s.goldAttrs))
          val closed = Metrics.closedTextF1(spark, Harness.restrict(v.table, ids), gold10)
          (closed, open.prf.f1)
      }
    }
    (scores.map(_._1).sum / scores.size, scores.map(_._2).sum / scores.size)
  }

  /** SoTA comparison on the SWDE verticals. */
  def table2(spark: SparkSession): Seq[T2Row] = {
    val movies = Corpora.movieSites
    val unis   = Corpora.uniSites
    val baselineRows = Seq(
      DomBaselines.ZeroShotCeres, DomBaselines.RobertaBase,
      DomBaselines.RobertaStructural, DomBaselines.DomLM).map { m =>
      val (mc, mo) = domScores(spark, movies, m)
      val (uc, uo) = domScores(spark, unis, m)
      T2Row(m.name, Harness.pct(mc), Harness.pct(mo), Harness.pct(uc), Harness.pct(uo))
    }
    val evaporateRows = Seq(
      ("Evaporate-Direct", None),
      ("Evaporate-Code", Some(CodeConfig(singleFunction = true))),
      ("Evaporate-Code+", Some(CodeConfig())),
    ).map { case (name, cfg) =>
      val (mc, mo) = evaporateVerticalScores(spark, movies, cfg)
      val (uc, uo) = evaporateVerticalScores(spark, unis, cfg)
      T2Row(name, Harness.pct(mc), Harness.pct(mo), Harness.pct(uc), Harness.pct(uo))
    }
    baselineRows ++ evaporateRows
  }

  def renderTable2(rows: Seq[T2Row]): String = {
    val sb = new StringBuilder
    sb.append("Table 2 — SWDE Movie / University vs. state of the art (Closed Text F1, Open Pair F1)\n")
    sb.append(f"${"System"}%-20s | Movie Closed     | Movie Open       | Univ Closed      | Univ Open\n")
    sb.append(f"${""}%-20s | paper   measured | paper   measured | paper   measured | paper   measured\n")
    rows.foreach { r =>
      val (pmc, pmo, puc, puo) = PaperNumbers.table2.toMap.apply(r.system)
      def s(x: Double) = if (x.isNaN) "     —" else f(x)
      sb.append(f"${r.system}%-20s | ${s(pmc)} ${f(r.movieClosed)}  | ${s(pmo)} ${f(r.movieOpen)}  | ${s(puc)} ${f(r.uniClosed)}  | ${s(puo)} ${f(r.uniOpen)}\n")
    }
    sb.toString
  }

  // ================================================================ Table 3

  final case class T3Row(group: String, directF1: Double, directMTok: Double, directUsd: Double,
                         plusF1: Double, plusMTok: Double, plusUsd: Double,
                         deltaF1: Double, reduction: Double)

  /** Direct vs Code+ quality (10-doc sample) and cost per 10k documents. */
  def table3(spark: SparkSession): Seq[T3Row] = {
    val per = Corpora.all.map { s =>
      val (docs, gold) = lake(spark, s)
      val ids     = Harness.sampleIds(s, EvalSample)
      val docs10  = Harness.restrict(docs, ids)
      val gold10  = Harness.restrict(gold, ids)

      val direct     = Harness.directOpen(spark, s, docs10, gold10, Profile.davinci, Seed)
      val directT10k = Harness.directTokensPer10k(direct.view, EvalSample)

      val plus     = Harness.codeOpen(spark, s, docs, gold, Profile.davinci, Seed,
        evalIds = Some(ids))
      val plusT10k = Harness.codeTokensPer10k(plus.view)

      (s, direct.prf.f1, directT10k, plus.prf.f1, plusT10k)
    }
    def m(tok: Double): Double = tok / 1e6
    val dF1 = byGroup(per.map(p => (p._1, p._2)))
    val dTk = byGroup(per.map(p => (p._1, p._3.toDouble)))
    val pF1 = byGroup(per.map(p => (p._1, p._4)))
    val pTk = byGroup(per.map(p => (p._1, p._5.toDouble)))
    PaperNumbers.groups.map { g =>
      T3Row(g,
        Harness.pct(dF1(g)), m(dTk(g)), CostModel.dollars(dTk(g).toLong),
        Harness.pct(pF1(g)), m(pTk(g)), CostModel.dollars(pTk(g).toLong),
        Harness.pct(pF1(g)) - Harness.pct(dF1(g)), dTk(g) / math.max(1.0, pTk(g)))
    }
  }

  def renderTable3(rows: Seq[T3Row]): String = {
    val sb = new StringBuilder
    sb.append("Table 3 — Direct vs Code+: quality (Pair F1 on 10-doc sample) and cost per 10k documents\n")
    sb.append(f"${"Source"}%-17s | Direct F1        | Direct Mtok      | Code+ F1         | Code+ Mtok       | dF1              | reduction\n")
    sb.append(f"${""}%-17s | paper   measured | paper   measured | paper   measured | paper   measured | paper   measured | paper   measured\n")
    def line(g: String, pap: (Double, Double, Double, Double, Double, Double, Double, Double), r: T3Row): Unit =
      sb.append(f"$g%-17s | ${f(pap._1)} ${f(r.directF1)}  | ${f(pap._2)} ${f(r.directMTok)}  | ${f(pap._4)} ${f(r.plusF1)}  | ${f(pap._5)} ${f(r.plusMTok)}  | ${f(pap._7)} ${f(r.deltaF1)}  | ${f(pap._8)}x${f(r.reduction)}x\n")
    rows.foreach(r => line(r.group, PaperNumbers.table3(r.group), r))
    val avg = T3Row("Average",
      rows.map(_.directF1).sum / rows.size, rows.map(_.directMTok).sum / rows.size,
      rows.map(_.directUsd).sum / rows.size, rows.map(_.plusF1).sum / rows.size,
      rows.map(_.plusMTok).sum / rows.size, rows.map(_.plusUsd).sum / rows.size,
      rows.map(_.deltaF1).sum / rows.size, rows.map(_.reduction).sum / rows.size)
    line("Average", (55.4, 258.0, 5157.0, 67.5, 1.9, 39.0, 12.1, 110.0), avg)
    sb.append(f"Dollar cost at $$0.02/1k tokens (text-davinci-003): Direct avg $$${avg.directUsd}%.0f, Code+ avg $$${avg.plusUsd}%.2f per 10k docs.\n")
    sb.toString
  }

  // ================================================================ Table 4

  final case class T4Row(group: String, mv: Double, ws: Double,
                         wsFilter: Double, wsFull: Double)

  /** Aggregation ablation: MV / WS / WS+Filter / WS+Abstain+Filter. */
  def table4(spark: SparkSession): Seq[T4Row] = {
    val modes = Seq(Aggregation.MajorityVote, Aggregation.WsRaw,
      Aggregation.WsFilter, Aggregation.WsFull)
    val per = Corpora.all.map { s =>
      val (docs, gold) = lake(spark, s)
      val f1s = modes.map { m =>
        Harness.codeOpen(spark, s, docs, gold, Profile.davinci, Seed, CodeConfig(mode = m)).prf.f1
      }
      (s, f1s)
    }
    val cols = (0 until 4).map(i => byGroup(per.map(p => (p._1, p._2(i)))))
    PaperNumbers.groups.map(g => T4Row(g,
      Harness.pct(cols(0)(g)), Harness.pct(cols(1)(g)),
      Harness.pct(cols(2)(g)), Harness.pct(cols(3)(g))))
  }

  def renderTable4(rows: Seq[T4Row]): String = {
    val sb = new StringBuilder
    sb.append("Table 4 — Aggregation strategies (OpenIE Pair F1)\n")
    sb.append(f"${"Source"}%-17s | MV               | WS               | WS+Filter        | WS+Abstain+Filter\n")
    sb.append(f"${""}%-17s | paper   measured | paper   measured | paper   measured | paper   measured\n")
    def line(g: String, pap: (Double, Double, Double, Double), r: T4Row): Unit =
      sb.append(f"$g%-17s | ${f(pap._1)} ${f(r.mv)}  | ${f(pap._2)} ${f(r.ws)}  | ${f(pap._3)} ${f(r.wsFilter)}  | ${f(pap._4)} ${f(r.wsFull)}\n")
    rows.foreach(r => line(r.group, PaperNumbers.table4(r.group), r))
    val avg = T4Row("Average",
      rows.map(_.mv).sum / rows.size, rows.map(_.ws).sum / rows.size,
      rows.map(_.wsFilter).sum / rows.size, rows.map(_.wsFull).sum / rows.size)
    line("Average", (56.2, 57.7, 64.8, 66.7), avg)
    sb.toString
  }

  // ================================================================ Table 5

  final case class T5Row(model: String, direct: Seq[Double], plus: Seq[Double], schemaF1: Double)

  private val t5GroupOrder = Seq("FDA", "Wiki NBA", "SWDE Movie", "SWDE University", "Enron Emails")

  /** Alternate LLM providers: Direct / Code+ OpenIE on 10-doc samples plus
    * schema-ID F1@k (averaged over all 16 settings).
    */
  def table5(spark: SparkSession): Seq[T5Row] = {
    Seq(Profile.gpt4, Profile.claude, Profile.jumbo).map { prof =>
      val per = Corpora.all.map { s =>
        val (docs, gold) = lake(spark, s)
        val ids    = Harness.sampleIds(s, EvalSample)
        val docs10 = Harness.restrict(docs, ids)
        val gold10 = Harness.restrict(gold, ids)
        val direct = Harness.directOpen(spark, s, docs10, gold10, prof, Seed)
        val plus   = Harness.codeOpen(spark, s, docs, gold, prof, Seed, evalIds = Some(ids))
        val schema = Harness.schemaF1AtK(s, prof, Seed)
        (s, direct.prf.f1, plus.prf.f1, schema)
      }
      val d  = byGroup(per.map(p => (p._1, p._2)))
      val pl = byGroup(per.map(p => (p._1, p._3)))
      val sc = per.map(_._4).sum / per.size
      T5Row(prof.model,
        t5GroupOrder.map(g => Harness.pct(d(g))),
        t5GroupOrder.map(g => Harness.pct(pl(g))),
        Harness.pct(sc))
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

  /** Davinci's schema F1@k (§4.4.2 reference value, 71.9 in the paper). */
  def davinciSchemaF1(spark: SparkSession): Double =
    Harness.pct(Corpora.all.map(s => Harness.schemaF1AtK(s, Profile.davinci, Seed)).sum / Corpora.all.size)

  // ================================================================ Table 6

  final case class T6Row(group: String, nAttrs: Double, closedF1: Double)

  /** QA span-extractor ClosedIE baseline (DeBERTaV3-SQuAD2-like). */
  def table6(spark: SparkSession): Seq[T6Row] = {
    val per = Corpora.all.map { s =>
      val docs      = DocGen.corpus(s, LakeDocs, Seed)
      val (_, gold) = lake(spark, s)
      val tuples = docs.flatMap(d => s.goldAttrs.flatMap { a =>
        val v = QaSpanBaseline.extract(d.text, a)
        if (v.nonEmpty) Some((d.id, a, v)) else None
      })
      (s, Metrics.closedTextF1(spark, tuplesDf(spark, tuples), gold))
    }
    val c = byGroup(per)
    val k = byGroup(Corpora.all.map(s => (s, s.goldAttrs.size.toDouble)))
    PaperNumbers.groups.map(g => T6Row(g, k(g), Harness.pct(c(g))))
  }

  def renderTable6(rows: Seq[T6Row]): String = {
    val sb = new StringBuilder
    sb.append("Table 6 — QA span-extractor baseline (ClosedIE Text F1)\n")
    sb.append(f"${"Source"}%-17s | #attrs | paper   measured\n")
    rows.foreach { r =>
      val (pk, pf) = PaperNumbers.table6(r.group)
      sb.append(f"${r.group}%-17s | ${r.nAttrs}%4.0f($pk%2d) | ${f(pf)} ${f(r.closedF1)}\n")
    }
    sb.toString
  }

  // ================================================================ Table 7

  final case class T7Row(group: String, nAttrs: Double, f1: Double, mTok: Double, usd: Double)

  /** Quality and cost of the LLM F's ClosedIE extraction (prompt E.2). */
  def table7(spark: SparkSession): Seq[T7Row] = {
    val per = Corpora.all.map { s =>
      val (docs, gold)   = lake(spark, s)
      val (view, closed) = Harness.directClosed(spark, s, docs, gold, Profile.davinci, Seed)
      val tok10k         = Harness.directTokensPer10k(view, LakeDocs)
      (s, closed, tok10k.toDouble)
    }
    val c = byGroup(per.map(p => (p._1, p._2)))
    val t = byGroup(per.map(p => (p._1, p._3)))
    val k = byGroup(Corpora.all.map(s => (s, s.goldAttrs.size.toDouble)))
    PaperNumbers.groups.map(g =>
      T7Row(g, k(g), Harness.pct(c(g)), t(g) / 1e6, CostModel.dollars(t(g).toLong)))
  }

  def renderTable7(rows: Seq[T7Row]): String = {
    val sb = new StringBuilder
    sb.append("Table 7 — LLM F ClosedIE quality & cost per 10k documents\n")
    sb.append(f"${"Source"}%-17s | #attrs | F1 paper/meas    | Mtok paper/meas  | $$ paper/meas\n")
    rows.foreach { r =>
      val (pk, pf, pt, pd) = PaperNumbers.table7(r.group)
      sb.append(f"${r.group}%-17s | ${r.nAttrs}%4.0f($pk%2d) | ${f(pf)} ${f(r.f1)}  | ${f(pt)} ${f(r.mTok)}  | ${pd}%8.0f ${r.usd}%8.2f\n")
    }
    val avg = T7Row("Average", rows.map(_.nAttrs).sum / rows.size, rows.map(_.f1).sum / rows.size,
      rows.map(_.mTok).sum / rows.size, rows.map(_.usd).sum / rows.size)
    sb.append(f"${"Average"}%-17s | ${avg.nAttrs}%4.1f     | ${f(79.9)} ${f(avg.f1)}  | ${f(289.0)} ${f(avg.mTok)}  | ${5785.0}%8.0f ${avg.usd}%8.2f\n")
    sb.toString
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
      def vertical(sites: Seq[Setting]): Double = {
        val f1s = sites.map { s =>
          val (docs, gold) = lake(spark, s)
          Harness.codeOpen(spark, s, docs, gold, Profile.davinci, Seed,
            CodeConfig(perPrompt = perPrompt, prompts = prompts)).prf.f1
        }
        f1s.sum / f1s.size
      }
      DiversityRow(name, Harness.pct(vertical(Corpora.movieSites)),
        Harness.pct(vertical(Corpora.uniSites)))
    }
  }

  def renderDiversity(rows: Seq[DiversityRow]): String = {
    val sb = new StringBuilder
    sb.append("§4.4.1 — Prompt diversity ablation (OpenIE Pair F1; paper: single prompts are 8.5/8.0 points worse)\n")
    rows.foreach(r => sb.append(f"${r.prompts}%-8s  SWDE Movie ${f(r.movieF1)}  SWDE University ${f(r.uniF1)}\n"))
    sb.toString
  }
}
