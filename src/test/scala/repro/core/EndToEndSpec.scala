package repro.core

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.docs.{Corpora, Setting}
import repro.eval.Harness
import repro.llm.Profile
import repro.ws.Aggregation

/** Integration tests asserting the paper's headline *orderings* end to end
  * on small lakes (30–40 documents). Absolute values live in the bench
  * suites; these tests pin the claims that must hold at any scale.
  */
class EndToEndSpec extends SparkSpec {

  private val seed = 42L

  // Every run is seeded, so each lake and each (setting, system) run is
  // computed once and shared by the tests that assert on it.
  private val lakes = mutable.Map.empty[String, (DataFrame, DataFrame)]
  private val runs  = mutable.Map.empty[String, (Harness.OpenRun, Harness.OpenRun, Harness.OpenRun)]

  private def lake(setting: Setting) =
    lakes.getOrElseUpdate(setting.name, Harness.lake(spark, setting, 40, seed))

  /** Direct, Code and Code+ (davinci, full Algorithm 1) on a 40-doc lake. */
  private def systems(setting: Setting) = runs.getOrElseUpdate(setting.name, {
    val (docs, gold) = lake(setting)
    val direct = Harness.directOpen(spark, setting, docs, gold, Profile.davinci, seed)
    val code = Harness.codeOpen(spark, setting, docs, gold, Profile.davinci, seed,
      CodeConfig(singleFunction = true))
    val plus = Harness.codeOpen(spark, setting, docs, gold, Profile.davinci, seed)
    (direct, code, plus)
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
    def f1(mode: Aggregation.Mode) =
      Harness.codeOpen(spark, Corpora.fda, docs, gold, Profile.davinci, seed,
        CodeConfig(mode = mode)).prf.f1
    val mv = f1(Aggregation.MajorityVote)
    val wf = f1(Aggregation.WsFilter)
    val full = systems(Corpora.fda)._3.prf.f1 // Code+ runs full Algorithm 1 by default
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
          Harness.codeOpen(spark, s, docs, gold, p, seed).prf.f1
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
    val (docs40, gold40) = lake(Corpora.fda)
    val (d40, _, p40) = systems(Corpora.fda)
    val ids = Harness.sampleIds(Corpora.fda, 10)
    val docs10 = Harness.restrict(docs40, ids)
    val d10 = Harness.directOpen(spark, Corpora.fda, docs10,
      Harness.restrict(gold40, ids), Profile.davinci, seed)
    assert(d40.view.tokens > 3 * d10.view.tokens)
    val p10 = Harness.codeOpen(spark, Corpora.fda, docs10, gold40, Profile.davinci, seed)
    def fixed(v: repro.core.StructuredView) = v.tokens - v.tokenBreakdown("validate")
    assert(fixed(p40.view) == fixed(p10.view))
  }
}
