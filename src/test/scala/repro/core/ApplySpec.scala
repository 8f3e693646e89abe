package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import repro.SparkSpec
import repro.docs.{Corpora, DocLake, Setting}
import repro.eval.Harness
import repro.llm.Profile
import repro.ws.Aggregation

/** `EvaporateCode.apply`, whose lake pass hands interned votes to Algorithm 1
  * and builds the view's rows from ids, equals [[ApplyReference]], the string
  * path it replaced: the same tuples in the same order (so E.4 sees the same
  * five values) and the same token breakdown.
  */
class ApplySpec extends SparkSpec {

  private val seed  = 42L
  private val modes = Seq(Aggregation.MajorityVote, Aggregation.WsRaw, Aggregation.WsFilter, Aggregation.WsFull)

  private def tuples(v: StructuredView): Seq[(String, String, String)] =
    v.table.collect().toSeq.map(r => (r.getString(0), r.getString(1), r.getString(2)))

  /** Asserts that `plan` applied to `docs` under `ms` equals the reference;
    * returns the views' tuples and token breakdowns.
    */
  private def assertMatches(plan: CodePlan, docs: DataFrame, ms: Seq[Aggregation.Mode],
                            what: String): Seq[(Seq[(String, String, String)], Map[String, Long])] = {
    val views = EvaporateCode.apply(spark, plan, docs, ms).map(v => (tuples(v), v.tokenBreakdown))
    ms.lazyZip(views).lazyZip(ApplyReference(plan, docs, ms)).foreach { case (m, view, ref) =>
      assert(view == ref, s"$what $m")
    }
    views
  }

  /** Code, Code+ under MV, WS, WS+Filter and full Algorithm 1, and ClosedIE;
    * returns Code+'s view under full Algorithm 1.
    */
  private def assertAllSystems(s: Setting, docs: DataFrame,
                               what: String): (Seq[(String, String, String)], Map[String, Long]) = {
    val k = s.goldAttrs.size
    assertMatches(EvaporateCode.plan(s, Profile.davinci, seed, k, CodeConfig(singleFunction = true)),
      docs, Seq(Aggregation.WsFull), s"$what Code")
    assertMatches(EvaporateCode.plan(s, Profile.davinci, seed, k, givenSchema = Some(s.goldAttrs)),
      docs, Seq(Aggregation.WsFull), s"$what ClosedIE")
    assertMatches(EvaporateCode.plan(s, Profile.davinci, seed, k), docs, modes, s"$what Code+").last
  }

  for (s <- Corpora.all) {
    test(s"${s.name}: every system's view equals the string path, tuple order and tokens included") {
      val (plusTuples, plusTokens) = assertAllSystems(s, Harness.lake(spark, s, 40, seed)._1, s.name)
      assert(plusTuples.nonEmpty && plusTokens("validate") > 0, "a lake whose order E.4 reads")
    }
  }

  private val fda = Corpora.fda
  private def fdaDocs: DataFrame = Harness.lake(spark, fda, 40, seed)._1

  test("an empty lake") {
    assertAllSystems(fda, DocLake.documents(spark, fda, 0, seed), "empty")
  }

  test("more partitions than documents, so some partitions are empty") {
    val docs  = fdaDocs.limit(5).repartition(12)
    val sizes = docs.queryExecution.toRdd.mapPartitions(rows => Iterator(rows.size)).collect()
    assert(sizes.length == 12 && sizes.count(_ == 0) > 0 && sizes.sum == 5)
    assertAllSystems(fda, docs, "sparse")
  }

  test("duplicate doc_ids: a repeated document, and one doc_id on two different texts") {
    val Array(a, b) = fdaDocs.select("doc_id").head(2).map(_.getString(0))
    val docs = fdaDocs
      .union(fdaDocs.where(col("doc_id") === a))
      .union(fdaDocs.where(col("doc_id") === b).select(lit(a) as "doc_id", col("text")))
    assertAllSystems(fda, docs, "duplicates")
  }

  test("a null doc_id and a null text") {
    val schema = StructType(Seq(StructField("doc_id", StringType), StructField("text", StringType)))
    val texts  = fdaDocs.head(2).map(_.getString(1))
    val nulls  = spark.createDataFrame(java.util.List.of(Row(null, texts(0)), Row("no-text", null),
      Row("also-no-text", null)), schema)
    assertAllSystems(fda, fdaDocs.union(nulls).union(DocLake.documents(spark, fda, 2, seed)), "nulls")
  }

  test("a lake repartitioned to 7") {
    assertAllSystems(fda, fdaDocs.repartition(7), "repartitioned")
  }
}
