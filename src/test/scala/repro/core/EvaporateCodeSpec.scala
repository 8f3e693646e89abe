package repro.core

import org.apache.spark.sql.execution.LocalTableScanExec
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.docs.Corpora
import repro.fn.ExtractorSet
import repro.eval.{Harness, Metrics}
import repro.llm.Profile
import repro.ws.Aggregation

class EvaporateCodeSpec extends SparkSpec {

  private val seed = 42L
  private lazy val (docs, gold) = Harness.lake(spark, Corpora.fda, 40, seed)
  private val k = Corpora.fda.goldAttrs.size

  test("code+ produces the tuple schema") {
    val v = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k)
    assert(v.table.columns.toSeq == Seq("doc_id", "attr", "value"))
    assert(v.table.count() > 0)
  }

  test("a code+ view's table is a local scan, so collecting it starts no Spark job") {
    val v = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k)
    assert(v.table.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec],
      v.table.queryExecution.executedPlan.getClass.getName)
    assert(withJobCount(v.table.collect())._2 == 0)
    val ids = Harness.sampleIds(Corpora.fda, 10)
    val (restricted, jobs) = withJobCount(Harness.restrict(v.table, ids).collect())
    assert(jobs == 0)
    assert(restricted.toSet == v.table.collect().filter(r => ids.contains(r.getString(0))).toSet)
  }

  test("code+ is deterministic") {
    val a = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k)
    val b = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k)
    assert(a.tokens == b.tokens)
    assert(a.table.collect().toSet == b.table.collect().toSet)
  }

  test("token cost is fixed in the number of documents (the paper's headline property)") {
    val docs10 = docs.limit(10)
    val v40 = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k)
    val v10 = EvaporateCode.run(spark, Corpora.fda, docs10, Profile.davinci, seed, k)
    // Schema, synthesis and eval tokens are exactly lake-size independent.
    // The E.4 validation pass samples 5 extracted values per attribute — a
    // bounded call count whose token total varies only with value lengths.
    def fixed(v: StructuredView) = v.tokens - v.tokenBreakdown("validate")
    assert(fixed(v40) == fixed(v10), "LLM tokens must not grow with lake size")
    val drift = math.abs(v40.tokens - v10.tokens).toDouble / v40.tokens
    assert(drift < 0.01, s"validation drift should be negligible, got $drift")
  }

  test("token breakdown covers schema, synthesis, eval and validation") {
    val v = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k)
    assert(v.tokenBreakdown.keySet == Set("schema", "synthesis", "eval", "validate"))
    assert(v.tokenBreakdown("schema") > 0)
    assert(v.tokenBreakdown("synthesis") > 0)
    assert(v.tokenBreakdown("eval") > 0)
    assert(v.tokens == v.tokenBreakdown.values.sum)
  }

  test("single-function mode (Evaporate-Code) skips the verification pass") {
    val v = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k,
      CodeConfig(singleFunction = true))
    assert(v.tokenBreakdown("eval") == 0)
    assert(v.tokenBreakdown("validate") == 0)
  }

  test("code+ beats the single-function implementation (paper: +25.1 F1)") {
    val plus = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k)
    val single = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k,
      CodeConfig(singleFunction = true))
    val fPlus   = Metrics.pairF1(plus.table, gold).f1
    val fSingle = Metrics.pairF1(single.table, gold).f1
    assert(fPlus > fSingle, s"plus=$fPlus single=$fSingle")
  }

  test("full Algorithm 1 beats plain majority vote (Table 4's direction)") {
    val full = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k)
    val mv = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k,
      CodeConfig(mode = Aggregation.MajorityVote))
    val fFull = Metrics.pairF1(full.table, gold).f1
    val fMv   = Metrics.pairF1(mv.table, gold).f1
    assert(fFull > fMv, s"full=$fFull mv=$fMv")
  }

  test("givenSchema (ClosedIE) extracts exactly the gold attributes") {
    val v = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k,
      givenSchema = Some(Corpora.fda.goldAttrs))
    assert(v.tokenBreakdown("schema") == 0, "no schema synthesis when the schema is given")
    val attrs = v.table.select("attr").distinct().collect().map(_.getString(0)).toSet
    assert(attrs.subsetOf(Corpora.fda.goldAttrs.map(repro.docs.Naming.normalize).toSet))
  }

  test("ClosedIE quality is in the paper's regime (FDA paper: 80.1)") {
    val v = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, k,
      givenSchema = Some(Corpora.fda.goldAttrs))
    val f1 = Metrics.closedTextF1(spark, v.table, gold)
    assert(f1 > 0.6, s"closed F1 = $f1")
  }

  test("jumbo profile loses most FDA attributes to filtering (Table 5: FDA 1.2)") {
    val v = EvaporateCode.run(spark, Corpora.fda, docs, Profile.jumbo, seed, k,
      givenSchema = Some(Corpora.fda.goldAttrs))
    val attrsOut = v.table.select("attr").distinct().count()
    assert(attrsOut < k / 2, s"jumbo kept $attrsOut of $k FDA attributes")
  }

  test("jumbo still handles the rigid Enron headers (Table 5: Enron 85.7)") {
    val (eDocs, eGold) = Harness.lake(spark, Corpora.enron, 40, seed)
    val v = EvaporateCode.run(spark, Corpora.enron, eDocs, Profile.jumbo, seed,
      Corpora.enron.goldAttrs.size, givenSchema = Some(Corpora.enron.goldAttrs))
    val f1 = Metrics.closedTextF1(spark, v.table, eGold)
    assert(f1 > 0.5, s"jumbo enron closed F1 = $f1")
  }

  test("validation drops attributes whose functions extract nothing") {
    // With a hallucinated schema entry, no tuples should surface for it.
    val v = EvaporateCode.run(spark, Corpora.fda, docs, Profile.davinci, seed, 3,
      givenSchema = Some(Seq("applicant", "made up attribute", "product code")))
    val attrs = v.table.select("attr").distinct().collect().map(_.getString(0)).toSet
    assert(!attrs.contains("made up attribute"))
  }

  test("duplicate doc_ids: the label model counts both copies of a document") {
    // Three functions. On X, f0 says "a" and f1 says "b" while f2 abstains,
    // so X takes the value of whichever of f0 and f1 the fit trusts more. Y
    // (f1 and f2 against f0) and Z (f0 and f2 against f1) balance each other
    // once each; a second copy of Y tips the fit toward f1.
    val base = Seq.tabulate(3)(i => (s"all$i", IndexedSeq(s"v$i", s"v$i", s"v$i"))) ++
      Seq("Z" -> IndexedSeq("q", "r", "q"), "X" -> IndexedSeq("a", "b", ""))
    val y    = "Y" -> IndexedSeq("y", "z", "z")
    assert(Aggregation.aggregate(base :+ y, 1.0, Aggregation.WsFull)("X") == "a")
    val twice = Aggregation.aggregate(base :+ y :+ y, 1.0, Aggregation.WsFull)
    assert(twice("X") == "b")
    assert(twice.size == base.size + 1, "one prediction per doc_id")
  }

  test("duplicate doc_ids: a document repeated by union gives one tuple per (doc_id, attr), for Code and Code+") {
    val id   = docs.select("doc_id").head().getString(0)
    val lake = docs.union(docs.where(col("doc_id") === id))
    val texts = lake.collect().map(r => (r.getString(0), r.getString(1))).toSeq
    assert(texts.size == 41 && texts.count(_._1 == id) == 2)
    for (cfg <- Seq(CodeConfig(), CodeConfig(singleFunction = true))) {
      val plan   = EvaporateCode.plan(Corpora.fda, Profile.davinci, seed, k, cfg)
      val tuples = EvaporateCode.apply(spark, plan, lake, Seq(cfg.mode)).head.table.collect()
        .map(r => (r.getString(0), r.getString(1), r.getString(2))).toSeq
      assert(tuples.exists(_._1 == id), s"singleFunction=${cfg.singleFunction}")
      assert(tuples.groupBy(t => (t._1, t._2)).values.forall(_.size == 1), s"singleFunction=${cfg.singleFunction}")
      // Each attribute's tuples are the aggregate of rows that hold both copies.
      for (a <- plan.attrs) {
        val set   = new ExtractorSet(a.keep(cfg.mode))
        val rows  = texts.map { case (d, t) => (d, set.extract(t)) }
        val fromBoth = Aggregation.aggregate(rows, a.e, cfg.mode)
          .collect { case (d, v) if v.trim.nonEmpty => (d, a.attr, v.trim) }.toSet
        val inView = tuples.filter(_._2 == a.attr).toSet
        assert(inView.isEmpty || inView == fromBoth, s"${a.attr} singleFunction=${cfg.singleFunction}")
      }
    }
  }
}
