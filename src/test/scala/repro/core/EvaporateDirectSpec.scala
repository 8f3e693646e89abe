package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.LocalTableScanExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import repro.{Oracle, SparkSpec}
import repro.docs.{Corpora, Naming}
import repro.eval.{Harness, Metrics}
import repro.llm.Profile

class EvaporateDirectSpec extends SparkSpec {

  private val seed = 42L
  private lazy val (docs, gold) = Harness.lake(spark, Corpora.enron, 30, seed)

  test("open run produces the tuple schema and a ranked attribute list") {
    val v = EvaporateDirect.run(spark, Corpora.enron, docs, Profile.davinci, seed, 15)
    assert(v.table.columns.toSeq == Seq("doc_id", "attr", "value"))
    assert(v.schema.nonEmpty)
    assert(v.schema == v.schema.distinct)
  }

  test("open run restricts the table to the top-k attributes") {
    val v = EvaporateDirect.run(spark, Corpora.enron, docs, Profile.davinci, seed, 5)
    val attrs = v.table.select("attr").distinct().collect().map(_.getString(0)).toSet
    assert(attrs.size <= 5)
    assert(attrs.subsetOf(v.schema.take(5).toSet))
  }

  test("token cost is positive and linear in the number of documents") {
    val v30 = EvaporateDirect.run(spark, Corpora.enron, docs, Profile.davinci, seed, 15)
    val docs10 = docs.where(col("doc_id").isin((0 until 10).map(i => s"enron-doc-$i"): _*))
    val v10 = EvaporateDirect.run(spark, Corpora.enron, docs10, Profile.davinci, seed, 15)
    assert(v10.tokens > 0)
    val ratio = v30.tokens.toDouble / v10.tokens
    assert(ratio > 2.0 && ratio < 4.0, s"token ratio $ratio for 3x the documents")
  }

  test("run is deterministic") {
    val a = EvaporateDirect.run(spark, Corpora.enron, docs, Profile.davinci, seed, 15)
    val b = EvaporateDirect.run(spark, Corpora.enron, docs, Profile.davinci, seed, 15)
    assert(a.tokens == b.tokens)
    assert(a.table.collect().toSet == b.table.collect().toSet)
  }

  test("quality on the easy Enron setting is high (paper: 90.9)") {
    val v  = EvaporateDirect.run(spark, Corpora.enron, docs, Profile.davinci, seed, 15)
    val f1 = Metrics.pairF1(v.table, gold).f1
    assert(f1 > 0.6, s"enron direct pair F1 = $f1")
  }

  test("oracle: attribute frequency ranking agrees with DuckDB") {
    import spark.implicits._
    // With k past the schema size the table holds every tuple.
    val v = EvaporateDirect.run(spark, Corpora.enron, docs, Profile.davinci, seed, Int.MaxValue)
    val ranks = v.schema.zipWithIndex.map { case (attr, i) => (attr, i + 1) }.toDF("attr", "rank")
    Oracle.assertEquivalent(
      ranks,
      "SELECT attr, ROW_NUMBER() OVER (ORDER BY COUNT(DISTINCT doc_id) DESC, attr) AS rank " +
        "FROM t GROUP BY attr",
      "t" -> v.table)
  }

  test("a view, open or closed, starts one Spark job, and reading its table starts none") {
    docs.count()
    val views = Seq(
      withJobCount(EvaporateDirect.run(spark, Corpora.enron, docs, Profile.davinci, seed, 15)),
      withJobCount(EvaporateDirect.runClosed(spark, Corpora.enron, docs, Profile.davinci, seed,
        Corpora.enron.goldAttrs)))
    views.foreach { case (v, jobs) =>
      assert(jobs == 1)
      assert(v.table.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec],
        v.table.queryExecution.executedPlan.getClass.getName)
      assert(withJobCount(v.table.collect())._2 == 0)
      assert(withJobCount(Harness.restrict(v.table, Harness.sampleIds(Corpora.enron, 10)).collect())._2 == 0)
    }
  }

  test("a repeated document counts once in the ranking and twice in tokens and the table") {
    val one = docs.where(col("doc_id") === "enron-doc-0")
    def run(d: DataFrame) = EvaporateDirect.run(spark, Corpora.enron, d, Profile.davinci, seed, 15)
    val (plain, repeated, single) = (run(docs), run(docs.union(one)), run(one))
    def rows(v: StructuredView) = v.table.collect().toSeq.map(_.toSeq.mkString("\t"))
    val copy = rows(plain).filter(_.startsWith("enron-doc-0\t"))
    assert(copy.nonEmpty)
    assert(repeated.schema == plain.schema)
    assert(repeated.tokens == plain.tokens + single.tokens)
    assert(rows(repeated).sorted == (rows(plain) ++ copy).sorted)
  }

  test("a row whose doc_id or text is null is not sent to the LLM: no tuples and 0 tokens") {
    val schema = StructType(Seq(StructField("doc_id", StringType), StructField("text", StringType)))
    val text   = docs.head().getString(1)
    val nulls  = spark.createDataFrame(java.util.List.of(Row(null, text), Row("no-text", null),
      Row(null, null)), schema)
    def views(d: DataFrame) = Seq(
      EvaporateDirect.run(spark, Corpora.enron, d, Profile.davinci, seed, 15),
      EvaporateDirect.runClosed(spark, Corpora.enron, d, Profile.davinci, seed, Corpora.enron.goldAttrs))
    views(nulls).foreach { v =>
      assert(v.table.collect().isEmpty)
      assert(v.tokens == 0L)
    }
    views(docs).zip(views(docs.union(nulls))).foreach { case (plain, withNulls) =>
      assert(withNulls.table.collect().toSeq == plain.table.collect().toSeq)
      assert(withNulls.schema == plain.schema)
      assert(withNulls.tokenBreakdown == plain.tokenBreakdown)
    }
  }

  test("value cleaning strips only U+0020 at the edges, as Spark SQL's trim, and drops blanks") {
    import spark.implicits._
    assert(EvaporateDirect.cleanValue("  a\tb  ").contains("a\tb"))
    assert(EvaporateDirect.cleanValue("\n x \n").contains("\n x \n"))
    Seq("   ", "", null).foreach(v => assert(EvaporateDirect.cleanValue(v).isEmpty, s"'$v'"))
    val samples = Seq("  a\tb  ", "\n x \n", "   ", "", null)
    val sparkTrim = samples.toDF("v").select(trim(col("v"))).collect().toSeq
      .map(r => Option(r.getString(0)).filter(_.nonEmpty))
    assert(sparkTrim == samples.map(EvaporateDirect.cleanValue))
  }

  test("closed run extracts only the requested attributes") {
    val v = EvaporateDirect.runClosed(spark, Corpora.enron, docs, Profile.davinci, seed,
      Seq("from", "subject"))
    val attrs = v.table.select("attr").distinct().collect().map(_.getString(0)).toSet
    assert(attrs.subsetOf(Set("from", "subject")))
  }

  test("closed run quality exceeds open (the attribute name is given)") {
    val closed = EvaporateDirect.runClosed(spark, Corpora.enron, docs, Profile.davinci, seed,
      Corpora.enron.goldAttrs)
    val closedF1 = Metrics.closedTextF1(spark, closed.table, gold)
    assert(closedF1 > 0.75, s"closed F1 = $closedF1")
  }

  test("hallucinated attribute names in the table never match gold attributes by accident") {
    val v = EvaporateDirect.run(spark, Corpora.enron, docs, Profile.davinci, seed, 15)
    val goldNorm = Corpora.enron.goldAttrs.map(Naming.normalize).toSet
    // All top-k attrs either match gold or are surfaced junk — assert the
    // junk is a minority for this rigid setting.
    val attrs = v.table.select("attr").distinct().collect().map(_.getString(0))
    assert(attrs.count(goldNorm.contains) >= attrs.length / 2)
  }
}
