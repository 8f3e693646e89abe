package repro.eval

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.{EvaporateCode, EvaporateDirect}
import repro.docs.{Corpora, DocGen, DocLake}
import repro.llm.Profile

/** A Harness lake is built once: its pages are the driver render the gold
  * comes from, and its gold is read without a Spark job, so a paper cell
  * runs only its system's own job.
  */
class HarnessSpec extends SparkSpec {

  private val seed    = 42L
  private val setting = Corpora.fda
  private val k       = setting.goldAttrs.size

  /** Built outside `withJobCount`: the first call caches and counts the documents. */
  private def lake(): (DataFrame, DataFrame) = Harness.lake(spark, setting, 40, seed)

  /** The 10-document sample, as `Tables` restricts a lake or a view. */
  private def sample(df: DataFrame): DataFrame =
    Harness.restrict(df, Harness.sampleIds(setting, Tables.EvalSample))

  test("scoring against a Harness lake's whole gold starts no Spark job") {
    val (_, gold) = lake()
    val ((pair, closed), jobs) = withJobCount(
      (Metrics.pairF1(gold, gold), Metrics.closedTextF1(spark, gold, gold)))
    assert(jobs == 0)
    assert(pair.f1 == 1.0 && closed == 1.0)
  }

  test("scoring against a Harness lake's gold restricted to the 10-document sample starts no Spark job") {
    val (_, gold) = lake()
    val ((pair, closed, partial), jobs) = withJobCount((
      Metrics.pairF1(sample(gold), sample(gold)),
      Metrics.closedTextF1(spark, sample(gold), sample(gold)),
      Metrics.pairF1(sample(gold), gold)))
    assert(jobs == 0)
    assert(pair.f1 == 1.0 && closed == 1.0)
    assert(partial.precision == 1.0 && partial.recall > 0.0 && partial.recall < 1.0)
  }

  test("a Code+ cell, run over the lake and scored on the sample, starts exactly one Spark job") {
    val (docs, gold) = lake()
    val (f1, jobs) = withJobCount {
      val plus = EvaporateCode.run(spark, setting, docs, Profile.davinci, seed, k)
      Metrics.pairF1(sample(plus.table), sample(gold)).f1
    }
    assert(jobs == 1)
    assert(f1 > 0.0)
  }

  test("a Direct cell, run and scored on the sample, starts exactly one Spark job") {
    val (docs, gold) = lake()
    val (f1, jobs) = withJobCount {
      val direct = EvaporateDirect.run(spark, setting, sample(docs), Profile.davinci, seed, k)
      Metrics.pairF1(sample(direct.table), sample(gold)).f1
    }
    assert(jobs == 1)
    assert(f1 > 0.0)
  }

  test("a Harness lake's pages are memoised with it and are the driver's render") {
    val pages = Harness.pages(spark, setting, 40, seed)
    assert(Harness.pages(spark, setting, 40, seed) eq pages)
    assert(pages == DocGen.corpus(setting, 40, seed))
  }

  test("a Harness lake's gold has the rows of DocLake.gold") {
    val (_, gold) = lake()
    def rows(df: DataFrame) = df.collect().toSeq.map(r => (r.getString(0), r.getString(1), r.getString(2)))
    assert(rows(gold) == rows(DocLake.gold(spark, setting, 40, seed)))
  }
}
