package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import java.util.HexFormat
import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.docs.{Corpora, DocLake, Setting}
import repro.eval.{Harness, Metrics}
import repro.fn.Extractor
import repro.llm.{Profile, SimLM}
import repro.ws.Aggregation

/** Integration tests asserting the paper's headline *orderings* end to end
  * on small lakes (30–40 documents). Absolute values live in the bench
  * suites; these tests pin the claims that must hold at any scale.
  */
class EndToEndSpec extends SparkSpec {
  import EndToEndSpec.Run

  private val seed = 42L

  // Every run is seeded, so each (setting, system) run is computed once and
  // shared by the tests that assert on it; `Harness.lake` memoises the lakes.
  private val runs = mutable.Map.empty[String, (Run, Run, Run)]

  private def lake(setting: Setting) = Harness.lake(spark, setting, 40, seed)

  private def directRun(setting: Setting, docs: DataFrame, profile: Profile = Profile.davinci) =
    EvaporateDirect.run(spark, setting, docs, profile, seed, setting.goldAttrs.size)

  private def codeRun(setting: Setting, docs: DataFrame, profile: Profile = Profile.davinci,
                      cfg: CodeConfig = CodeConfig()) =
    EvaporateCode.run(spark, setting, docs, profile, seed, setting.goldAttrs.size, cfg)

  /** Direct, Code and Code+ (davinci, full Algorithm 1) on a 40-doc lake. */
  private def systems(setting: Setting) = runs.getOrElseUpdate(setting.name, {
    val (docs, gold) = lake(setting)
    def scored(view: StructuredView) = Run(view, Metrics.pairF1(view.table, gold))
    (scored(directRun(setting, docs)),
      scored(codeRun(setting, docs, cfg = CodeConfig(singleFunction = true))),
      scored(codeRun(setting, docs)))
  })

  for (setting <- Seq(Corpora.fda, Corpora.nba, Corpora.movieSites.head, Corpora.uniSites.head)) {
    test(s"${setting.name}: Code < Direct and Code < Code+ (the cost-quality tradeoff)") {
      val (direct, code, plus) = systems(setting)
      assert(code.prf.f1 < direct.prf.f1,
        s"code=${code.prf.f1} direct=${direct.prf.f1}")
      assert(code.prf.f1 < plus.prf.f1,
        s"code=${code.prf.f1} plus=${plus.prf.f1}")
    }

    test(s"${setting.name}: Code+ beats Direct (the paper's +12.1 F1 claim)") {
      val (direct, _, plus) = systems(setting)
      assert(plus.prf.f1 > direct.prf.f1,
        s"plus=${plus.prf.f1} direct=${direct.prf.f1}")
    }
  }

  test("enron: Direct and Code+ are both strong and close (paper: 90.9 vs 87.1)") {
    val (direct, _, plus) = systems(Corpora.enron)
    assert(direct.prf.f1 > 0.6 && plus.prf.f1 > 0.6)
    assert(math.abs(direct.prf.f1 - plus.prf.f1) < 0.25)
  }

  test("aggregation ablation ordering holds on FDA: MV <= WS-filter <= full Algorithm 1") {
    val (docs, gold) = lake(Corpora.fda)
    val plan = EvaporateCode.plan(Corpora.fda, Profile.davinci, seed, Corpora.fda.goldAttrs.size)
    val Seq(mv, wf, full) = EvaporateCode.apply(spark, plan, docs,
      Seq(Aggregation.MajorityVote, Aggregation.WsFilter, Aggregation.WsFull))
      .map(v => Metrics.pairF1(v.table, gold).f1)
    assert(mv <= wf + 0.02, s"mv=$mv wsFilter=$wf")
    assert(wf <= full + 0.02, s"wsFilter=$wf full=$full")
    assert(full > mv, s"full=$full mv=$mv")
  }

  test("provider ordering on Code+ (FDA+Movie avg): davinci > claude > jumbo (Table 5)") {
    def f1(p: Profile): Double = {
      Seq(Corpora.fda, Corpora.movieSites.head).map { s =>
        if (p == Profile.davinci) systems(s)._3.prf.f1
        else {
          val (docs, gold) = lake(s)
          Metrics.pairF1(codeRun(s, docs, p).table, gold).f1
        }
      }.sum / 2
    }
    val d = f1(Profile.davinci); val c = f1(Profile.claude); val j = f1(Profile.jumbo)
    assert(d > c, s"davinci=$d claude=$c")
    assert(c > j, s"claude=$c jumbo=$j")
    assert(j < 0.25, s"jumbo should collapse on FDA/Movie (paper: 1.2/20.6), got $j")
  }

  test("Code+ keeps precision >= recall (the paper's precision-recall tradeoff)") {
    for (setting <- Seq(Corpora.fda, Corpora.nba)) {
      val (_, _, plus) = systems(setting)
      assert(plus.prf.precision >= plus.prf.recall - 0.05,
        s"${setting.name}: P=${plus.prf.precision} R=${plus.prf.recall}")
    }
  }

  test("Direct tokens grow with the lake while Code+ tokens do not") {
    val (docs40, _) = lake(Corpora.fda)
    val (d40, _, p40) = systems(Corpora.fda)
    val docs10 = Harness.restrict(docs40, Harness.sampleIds(Corpora.fda, 10))
    val d10 = directRun(Corpora.fda, docs10)
    assert(d40.view.tokens > 3 * d10.tokens)
    val p10 = codeRun(Corpora.fda, docs10)
    def fixed(v: StructuredView) = v.tokens - v.tokenBreakdown("validate")
    assert(fixed(p40.view) == fixed(p10))
  }

  /** SHA-256 of a view's sorted `doc_id\tattr\tvalue` lines followed by its
    * sorted `call\ttokens` breakdown: a run's table and its LLM cost.
    */
  private def digest(view: StructuredView): String = {
    val tuples = view.table.collect().toSeq
      .map(r => Seq("doc_id", "attr", "value").map(r.getAs[String]).mkString("\t")).sorted
    val tokens = view.tokenBreakdown.toSeq.sorted.map { case (call, n) => s"$call\t$n" }
    HexFormat.of.formatHex(MessageDigest.getInstance("SHA-256")
      .digest((tuples ++ tokens).mkString("\n").getBytes(UTF_8)))
  }

  /** Digests of Direct, Code and Code+ on each group's 40-doc lake. A change
    * that moves any of them changes the paper's tables: explain it or fix it.
    */
  private val golden: Map[String, (String, String, String)] = Map(
    "fda" -> (
      "ae7528edbfdb469d3e8dd496fb70249a71356435090a7a7b6819ba3c89c4f469",
      "bd9d981bcc738da9bc30801a1e4e52954016de2010e58971ab883a205ca4a4ef",
      "26e3c8d03f1edcc4d76ac5b2b1601aa875dacf7bce7eac37c76bc2b079bbc413"),
    "enron" -> (
      "a6f9a62b2e7cf3afab3f7e83dcf688ac589a5a4b21b87f3ba9114aca6f890864",
      "b9f58b6623840e93b637392b7b0d0ce53e3f045c2ba111c6f6e3e49e4194bb81",
      "08b16d0b5ee0497d4411f70dc25b45cd21ca16221dc40d2132364185a7268c05"),
    "wiki-nba" -> (
      "823377f101590db8d7defd199d873681068c5b51981f614de66cc88da1349fcb",
      "0c668aeaf3ec0cde8b7e72d9d48f3e78dcd792c68dddc3f1dc48d4eef996c404",
      "47245575318ac7b4607fdc185937a55fd1329114d1cf80ddb8595ae1beeeef25"),
    "swde-movie-imdb" -> (
      "f4c154a67c2fccbb4ab82b644486a53e154e5072e930e9d483718e5718bf9464",
      "9010bd13094fb1045606947b6f4c573c21704475e12b143ba1a34e438ee28668",
      "69706c6bda9fe0a5708ea2897b1b7bd52ca2707e0070efb769df84e52ada60e0"),
    "swde-university-collegeprowler" -> (
      "be3fa3e0e3d5bedeaa344a893bf323f584047689569fad6f780949c84e2ce925",
      "374328b7d75b45cbe17c9e939be9693c9e5d072f5ecc940857b37604ba0cf17f",
      "cb0b8a220935ffa433f56bd99bfcc3f304cee4e1207137b28aef1fc67e049695"),
  )

  private val goldenSettings =
    Seq(Corpora.fda, Corpora.enron, Corpora.nba, Corpora.movieSites.head, Corpora.uniSites.head)

  for (setting <- goldenSettings) {
    test(s"${setting.name}: Direct, Code and Code+ outputs match their golden digests") {
      val (direct, code, plus) = systems(setting)
      val got = (digest(direct.view), digest(code.view), digest(plus.view))
      assert(got == golden(setting.name))
    }
  }

  test("Direct and Code+ outputs do not depend on shuffle partitions or lake partitioning") {
    val setting = Corpora.fda
    val (docs, _) = lake(setting)
    def digests(d: DataFrame) = (digest(directRun(setting, d)), digest(codeRun(setting, d)))
    val (direct, _, plus) = golden(setting.name)
    def at(partitions: Int) = withConf("spark.sql.shuffle.partitions" -> partitions.toString,
        "spark.sql.adaptive.coalescePartitions.enabled" -> "false")(digests(docs))
    assert(at(1) == ((direct, plus)))
    assert(at(64) == ((direct, plus)))
    assert(digests(docs.repartition(7)) == ((direct, plus)))
  }

  private val allModes =
    Seq(Aggregation.MajorityVote, Aggregation.WsRaw, Aggregation.WsFilter, Aggregation.WsFull)

  for (setting <- Seq(Corpora.fda, Corpora.movieSites.head)) {
    val k = setting.goldAttrs.size

    test(s"${setting.name}: one plan applied under every mode matches run in each mode") {
      val (docs, _) = lake(setting)
      val views = EvaporateCode.apply(spark,
        EvaporateCode.plan(setting, Profile.davinci, seed, k), docs, allModes)
      allModes.zip(views).foreach { case (mode, v) =>
        val run = EvaporateCode.run(spark, setting, docs, Profile.davinci, seed, k, CodeConfig(mode = mode))
        assert(digest(v) == digest(run), mode.toString)
      }
    }

    test(s"${setting.name}: one plan applied to the 10- and 40-doc lakes spends the same plan tokens") {
      val (docs40, _) = lake(setting)
      val docs10 = Harness.restrict(docs40, Harness.sampleIds(setting, 10))
      val plan = EvaporateCode.plan(setting, Profile.davinci, seed, k)
      val Seq(v10, v40) =
        Seq(docs10, docs40).map(EvaporateCode.apply(spark, plan, _, Seq(Aggregation.WsFull)).head)
      val planCalls = Seq("schema", "synthesis", "eval")
      assert(planCalls.map(v10.tokenBreakdown) == planCalls.map(v40.tokenBreakdown))
      assert(planCalls.map(v40.tokenBreakdown) == planCalls.map(plan.tokens))
      assert(v10.table.count() < v40.table.count())
    }
  }

  test("an attribute whose candidates are all Broken gives no tuples, and the others are unchanged") {
    val setting = Corpora.fda
    val (docs, _) = lake(setting)
    val plan = EvaporateCode.plan(setting, Profile.davinci, seed, setting.goldAttrs.size)
    val a = plan.attrs.head
    val broken = a.copy(candidates = a.candidates.map(_ => Extractor.Broken("syntax error")),
      evalOutputs = a.evalOutputs.map(_.map(_ => "")))
    val before = EvaporateCode.apply(spark, plan, docs, allModes)
    val after = EvaporateCode.apply(spark, plan.copy(attrs = broken +: plan.attrs.tail), docs, allModes)
    def own(v: StructuredView)    = v.table.where(col("attr") === a.attr)
    def others(v: StructuredView) = v.table.where(col("attr") =!= a.attr).collect().toSet
    assert(before.exists(!own(_).isEmpty), s"${a.attr} must be extracted before its candidates break")
    allModes.lazyZip(before).lazyZip(after).foreach { (mode, b, v) =>
      assert(own(v).isEmpty, mode.toString)
      assert(others(v).nonEmpty && others(v) == others(b), mode.toString)
    }
  }

  test("a Code+ view's schema is schema synthesis over the plan's sample and LM (Table 5's F1@k)") {
    for (setting <- Seq(Corpora.fda, Corpora.movieSites.head); profile <- Seq(Profile.davinci, Profile.jumbo)) {
      val synthesized = SchemaSynthesis.synthesize(
        DocLake.sample(setting, 10, seed), SimLM(profile, setting, seed))
      val (docs, _) = lake(setting)
      val viewSchema =
        if (profile == Profile.davinci) systems(setting)._3.view.schema else codeRun(setting, docs, profile).schema
      assert(viewSchema == synthesized.ranked, s"${setting.name} ${profile.model}")
    }
  }

  test("an empty lake gives empty views and finite token counts from Direct and Code+") {
    val setting = Corpora.fda
    val docs = DocLake.documents(spark, setting, 0, seed)
    val views = Seq(
      EvaporateDirect.run(spark, setting, docs, Profile.davinci, seed, setting.goldAttrs.size),
      EvaporateDirect.runClosed(spark, setting, docs, Profile.davinci, seed, setting.goldAttrs),
      EvaporateCode.run(spark, setting, docs, Profile.davinci, seed, setting.goldAttrs.size))
    views.foreach { v =>
      assert(v.table.isEmpty)
      assert(v.tokens >= 0 && v.tokens == v.tokenBreakdown.values.sum)
    }
    assert(views.take(2).forall(_.tokens == 0L))
  }
}

object EndToEndSpec {
  /** An open-extraction view and its Pair F1 against the lake's gold. */
  private final case class Run(view: StructuredView, prf: Metrics.Prf)
}
