package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit}
import repro.SparkSpec
import repro.docs.{Corpora, DocLake, Setting}
import repro.eval.Harness
import repro.llm.Profile

/** `EvaporateDirect`, whose tasks call the LLM over `InternalRow`s and intern
  * the attribute names, equals [[DirectReference]], the UDF path it replaced:
  * the same tuples in the same order, the same ranked schema and the same
  * token breakdown, open and closed.
  */
class DirectPassSpec extends SparkSpec {

  private val seed = 42L

  private def view(v: StructuredView): DirectReference.View =
    (v.table.collect().toSeq.map(r => (r.getString(0), r.getString(1), r.getString(2))),
      v.schema, v.tokenBreakdown)

  /** Asserts that both variants on `docs` equal the reference; returns the open view. */
  private def assertMatches(s: Setting, docs: DataFrame, what: String): DirectReference.View = {
    val k    = s.goldAttrs.size
    val open = view(EvaporateDirect.run(spark, s, docs, Profile.davinci, seed, k))
    assert(open == DirectReference.run(s, docs, Profile.davinci, seed, k), s"$what open")
    assert(view(EvaporateDirect.runClosed(spark, s, docs, Profile.davinci, seed, s.goldAttrs)) ==
      DirectReference.runClosed(s, docs, Profile.davinci, seed, s.goldAttrs), s"$what closed")
    open
  }

  for (s <- Corpora.all) {
    test(s"${s.name}: open and closed views equal the UDF path, tuple order and tokens included") {
      val (tuples, schema, _) = assertMatches(s, Harness.lake(spark, s, 40, seed)._1, s.name)
      assert(tuples.nonEmpty && schema.size > s.goldAttrs.size, "a lake whose top-k cut drops attributes")
    }
  }

  private val fda = Corpora.fda
  private def fdaDocs: DataFrame = Harness.lake(spark, fda, 40, seed)._1

  test("an empty lake") {
    val (tuples, schema, tokens) = assertMatches(fda, DocLake.documents(spark, fda, 0, seed), "empty")
    assert(tuples.isEmpty && schema.isEmpty && tokens == Map("direct" -> 0L))
  }

  test("more partitions than documents, so some partitions are empty") {
    val docs  = fdaDocs.limit(5).repartition(12)
    val sizes = docs.queryExecution.toRdd.mapPartitions(rows => Iterator(rows.size)).collect()
    assert(sizes.length == 12 && sizes.count(_ == 0) > 0 && sizes.sum == 5)
    assertMatches(fda, docs, "sparse")
  }

  test("duplicate doc_ids: a repeated document, and one doc_id on two different texts") {
    val Array(a, b) = fdaDocs.select("doc_id").head(2).map(_.getString(0))
    val docs = fdaDocs
      .union(fdaDocs.where(col("doc_id") === a))
      .union(fdaDocs.where(col("doc_id") === b).select(lit(a) as "doc_id", col("text")))
    assertMatches(fda, docs, "duplicates")
  }

  test("a lake repartitioned to 7") {
    assertMatches(fda, fdaDocs.repartition(7), "repartitioned")
  }
}
