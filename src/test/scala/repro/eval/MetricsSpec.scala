package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.{Oracle, SparkSpec}
import repro.core.StructuredView
import repro.docs.Naming

class MetricsSpec extends SparkSpec {

  import Metrics._

  // ---------------------------------------------------------------- Text F1

  test("textF1 exact match is 1") {
    assert(textF1("June 29, 1988", "June 29, 1988") == 1.0)
  }

  test("textF1 is the SQuAD token F1 (normalization: case, punctuation, articles)") {
    assert(textF1("The Quick Fox", "quick fox!") == 1.0)
    assert(textF1("a cat", "cat") == 1.0)
  }

  test("textF1 partial overlap") {
    // pred {june, 29}, gold {june, 29, 1988}: p=1, r=2/3 -> f1=0.8
    assert(math.abs(textF1("June 29", "June 29 1988") - 0.8) < 1e-9)
  }

  test("textF1 no overlap is 0") {
    assert(textF1("alpha beta", "gamma delta") == 0.0)
  }

  test("textF1 empty handling: both empty = 1, one empty = 0") {
    assert(textF1("", "") == 1.0)
    assert(textF1("x", "") == 0.0)
    assert(textF1("", "x") == 0.0)
    assert(textF1(null, null) == 1.0)
  }

  test("textF1 multiset overlap does not double-count tokens") {
    // pred {x}, gold {x, x}: overlap 1, p=1, r=0.5 -> 2/3
    assert(math.abs(textF1("x", "x x") - 2.0 / 3.0) < 1e-9)
  }

  test("textF1 is symmetric in P/R structure") {
    assert(textF1("a b", "a b c") == textF1("a b c", "a b"))
  }

  // ---------------------------------------------------------------- Pair F1

  private def df(rows: Seq[(String, String, String)]) = StructuredView.tuplesDf(spark, rows)

  test("pairF1 perfect prediction") {
    val g = df(Seq(("d1", "a", "x"), ("d2", "a", "y")))
    val r = pairF1(g, g)
    assert(r.precision == 1.0 && r.recall == 1.0 && r.f1 == 1.0)
  }

  test("pairF1 counts exact tuple matches only — no partial value credit") {
    val gold = df(Seq(("d1", "a", "June 29, 1988")))
    val pred = df(Seq(("d1", "a", "June 29")))
    assert(pairF1(pred, gold).f1 == 0.0)
  }

  test("pairF1 hand-computed precision/recall") {
    val gold = df(Seq(("d1", "a", "x"), ("d1", "b", "y"), ("d2", "a", "z")))
    val pred = df(Seq(("d1", "a", "x"), ("d1", "b", "WRONG"), ("d3", "a", "q")))
    val r = pairF1(pred, gold)
    assert(math.abs(r.precision - 1.0 / 3.0) < 1e-9)
    assert(math.abs(r.recall - 1.0 / 3.0) < 1e-9)
    assert(math.abs(r.f1 - 1.0 / 3.0) < 1e-9)
  }

  test("pairF1 normalizes attribute names and value whitespace") {
    val gold = df(Seq(("d1", "510(k) number", "K1\n\t2")))
    val pred = df(Seq(("d1", "510 K NUMBER", "K1 2")))
    assert(pairF1(pred, gold).f1 == 1.0)
    // Only U+0020 is trimmed after the collapse, as Spark SQL's trim does: U+001F is removed
    // by String.trim and strip, U+2003 by strip alone and U+00A0 by neither, and none of them
    // is in \s, so each stays part of the value (its token F1 still matches).
    val x = df(Seq(("d", "a", "x")))
    for ((v, f1) <- Seq("x\u001F" -> 0.0, "\u2003x" -> 0.0, "\u00A0x" -> 0.0, " x \t" -> 1.0, "x\n" -> 1.0)) {
      assert(pairF1(df(Seq(("d", "a", v))), x).f1 == f1, v)
      assert(closedTextF1(spark, df(Seq(("d", "a", v))), x) == 1.0, v)
    }
  }

  test("pairF1 ignores empty values and duplicates") {
    val gold = df(Seq(("d1", "a", "x")))
    val pred = df(Seq(("d1", "a", "x"), ("d1", "a", "x"), ("d1", "b", "")))
    assert(pairF1(pred, gold).f1 == 1.0)
  }

  test("pairF1 empty prediction set") {
    val gold = df(Seq(("d1", "a", "x")))
    val r = pairF1(df(Nil), gold)
    assert(r.precision == 0.0 && r.recall == 0.0 && r.f1 == 0.0)
  }

  // DuckDB's own spelling of Naming.normalize, for the oracle queries.
  private def duckNorm(c: String) = s"trim(regexp_replace(lower($c), '[^a-z0-9]+', ' ', 'g'))"

  // Attribute variants, multi-line values, duplicates and empty/null values.
  private val oracleGold = Seq(("d1", "Product Code", "K1\n 2"), ("d1", "b", "y"),
    ("d2", "a", "z"), ("d2", "c", "w"), ("d2", "c", "w2"), ("d2", "c", null), ("d3", "a", null),
    ("d3", "b", ""))
  private val oraclePred = Seq(("d1", "product-code", "K1 2"), ("d1", "B", "n"),
    ("d2", "a", " z "), ("d2", "a", "z"), ("d2", "c", "w"), ("d4", "a", "x"), ("d3", "b", ""),
    ("d3", "a", null))

  test("oracle: pair-match counting agrees with DuckDB") {
    val pred = df(oraclePred)
    val gold = df(oracleGold)
    val r    = pairF1(pred, gold)
    val got  = spark.range(1).select(lit(r.precision) as "pair_p", lit(r.recall) as "pair_r")
    def canon(t: String) =
      s"""SELECT DISTINCT * FROM (
         |  SELECT doc_id, ${duckNorm("attr")} AS attr,
         |         trim(regexp_replace(value, '\\s+', ' ', 'g')) AS value FROM $t)
         |WHERE value <> ''""".stripMargin
    Oracle.assertEquivalent(
      got,
      s"""WITH p AS (${canon("pred")}), g AS (${canon("gold")}),
         |     m AS (SELECT count(*) AS n FROM p JOIN g USING (doc_id, attr, value))
         |SELECT (SELECT n FROM m)::DOUBLE / (SELECT count(*) FROM p) AS pair_p,
         |       (SELECT n FROM m)::DOUBLE / (SELECT count(*) FROM g) AS pair_r""".stripMargin,
      "pred" -> pred, "gold" -> gold)
  }

  // -------------------------------------------------------------- ClosedIE

  test("closedTextF1 averages per-slot token F1") {
    val gold = df(Seq(("d1", "a", "x y"), ("d1", "b", "z")))
    val pred = df(Seq(("d1", "a", "x y"), ("d1", "b", "WRONG")))
    assert(math.abs(closedTextF1(spark, pred, gold) - 0.5) < 1e-9)
  }

  test("closedTextF1 penalizes unpredicted gold slots") {
    val gold = df(Seq(("d1", "a", "x"), ("d1", "b", "y")))
    val pred = df(Seq(("d1", "a", "x")))
    assert(math.abs(closedTextF1(spark, pred, gold) - 0.5) < 1e-9)
  }

  test("closedTextF1 penalizes spurious predictions on empty gold slots") {
    val gold = df(Seq(("d1", "a", "x")))
    val pred = df(Seq(("d1", "a", "x"), ("d1", "b", "spurious")))
    assert(math.abs(closedTextF1(spark, pred, gold) - 0.5) < 1e-9)
  }

  test("closedTextF1 on empty inputs is 0") {
    assert(closedTextF1(spark, df(Nil), df(Nil)) == 0.0)
  }

  test("oracle: closedTextF1 scores one pairing per row of DuckDB's full outer join") {
    val pred  = df(oraclePred)
    val gold  = df(oracleGold)
    val slots = closedScoreCounts(pred, gold).map(_._2).sum
    Oracle.assertEquivalent(
      spark.range(1).select(lit(slots) as "slots"),
      s"""SELECT count(*) AS slots
         |FROM (SELECT doc_id, ${duckNorm("attr")} AS attr FROM gold) g
         |FULL OUTER JOIN (SELECT doc_id, ${duckNorm("attr")} AS attr FROM pred WHERE value <> '') p
         |  ON g.doc_id = p.doc_id AND g.attr = p.attr""".stripMargin,
      "pred" -> pred, "gold" -> gold)
  }

  // ------------------------------------------ reference implementations

  private type Tuple = (String, String, String)

  /** Pair F1 of Appendix A over plain Scala sets, with the value
    * canonicalisation `pairF1` documents.
    */
  private def refPairF1(pred: Seq[Tuple], gold: Seq[Tuple]): Prf = {
    def canon(ts: Seq[Tuple]): Set[Tuple] = ts.collect {
      case (d, a, v) if v != null && v.replaceAll("\\s+", " ").trim.nonEmpty =>
        (d, Naming.normalize(a), v.replaceAll("\\s+", " ").trim)
    }.toSet
    val p = canon(pred)
    val g = canon(gold)
    val m = p.intersect(g).size
    val pr = if (p.isEmpty) 0.0 else m.toDouble / p.size
    val rc = if (g.isEmpty) 0.0 else m.toDouble / g.size
    Prf(pr, rc, if (pr + rc == 0) 0.0 else 2 * pr * rc / (pr + rc))
  }

  /** ClosedIE Text F1 of Appendix A: every pairing of a slot's predicted and
    * gold values is scored, and a side with no values reads as "".
    */
  private def refClosedTextF1(pred: Seq[Tuple], gold: Seq[Tuple]): Double = {
    def slots(ts: Seq[Tuple]) = ts.groupMap(t => (t._1, Naming.normalize(t._2)))(_._3)
    val p = slots(pred.filter(t => t._3 != null && t._3.nonEmpty))
    val g = slots(gold.map(t => t.copy(_3 = Option(t._3).getOrElse(""))))
    val scores = (p.keySet ++ g.keySet).toSeq.flatMap { k =>
      for (pv <- p.getOrElse(k, Seq("")); gv <- g.getOrElse(k, Seq(""))) yield textF1(pv, gv)
    }
    if (scores.isEmpty) 0.0 else scores.sum / scores.size
  }

  // Few documents and attribute spellings, so that duplicates, attribute
  // variants that normalise alike and multi-valued slots are common.
  private val tupleGen: Gen[Tuple] = for {
    d <- Gen.oneOf("d1", "d2", "d3")
    a <- Gen.oneOf("Product Code", "product code", "PRODUCT-CODE", "product_code:",
                   "Device", "device!", "Applicant Name")
    v <- Gen.oneOf("K123", "k123", "K1\n23", "  K123 ", "the device", "Device\tName  X",
                   "x y", "y x", "", "   ", null)
  } yield (d, a, v)

  private val tablesGen: Gen[(Seq[Tuple], Seq[Tuple])] = for {
    gold  <- Gen.choose(0, 10).flatMap(Gen.listOfN(_, tupleGen))
    extra <- Gen.choose(0, 10).flatMap(Gen.listOfN(_, tupleGen))
    kept  <- Gen.someOf(gold)
  } yield (gold, (kept ++ extra).toSeq)

  test("property: pairF1 and closedTextF1 match the Appendix A reference definitions") {
    (0 until 25).flatMap(i => tablesGen.apply(Gen.Parameters.default, Seed(i.toLong))).foreach {
      case (gold, pred) =>
        val (p, g) = (df(pred), df(gold))
        val ctx = s"pred=$pred gold=$gold"
        assert(pairF1(p, g) == refPairF1(pred, gold), ctx)
        assert(math.abs(closedTextF1(spark, p, g) - refClosedTextF1(pred, gold)) < 1e-9, ctx)
    }
  }

  test("textF1Fraction is textF1 as an exact fraction") {
    val values = Seq("", null, "x", "x x", "the x y", "X, Y!", "y z w", "a")
    for (p <- values; g <- values) {
      val (num, den) = textF1Fraction(p, g)
      assert(math.abs(num.toDouble / den - textF1(p, g)) < 1e-12, s"pred=$p gold=$g")
    }
  }

  test("metrics do not depend on shuffle partitions or input partitioning") {
    val words = Gen.listOfN(3, Gen.oneOf("alpha", "beta", "gamma", "x", "the"))
    val tuple = for {
      d <- Gen.choose(0, 39); a <- Gen.oneOf("a", "b", "c"); n <- Gen.choose(1, 3); ws <- words
    } yield (s"d$d", a, ws.take(n).mkString(" "))
    def table(seed: Long) = Gen.listOfN(300, tuple).apply(Gen.Parameters.default, Seed(seed)).get
    val (predRows, goldRows) = (table(1), table(2))
    def scores(p: DataFrame, g: DataFrame) = (pairF1(p, g), closedTextF1(spark, p, g))
    def at(partitions: Int) = withConf("spark.sql.shuffle.partitions" -> partitions.toString,
        "spark.sql.adaptive.coalescePartitions.enabled" -> "false") {
      scores(df(predRows), df(goldRows))
    }
    val reference = at(64)
    assert(at(1) == reference)
    assert(scores(df(predRows).repartition(7), df(goldRows).repartition(3)) == reference)
  }

  // ----------------------------------------------------------------- F1@k

  test("f1AtK perfect schema") {
    assert(f1AtK(Seq("a", "b"), Seq("a", "b"), 2) == 1.0)
  }

  test("f1AtK truncates predictions at k") {
    // top-2 of predictions = {a, x}; gold {a, b}: p=0.5, r=0.5
    assert(f1AtK(Seq("a", "x", "b"), Seq("a", "b"), 2) == 0.5)
  }

  test("f1AtK normalizes names") {
    assert(f1AtK(Seq("510(K) Number"), Seq("510 k number"), 1) == 1.0)
  }

  test("f1AtK empty prediction is 0") {
    assert(f1AtK(Nil, Seq("a"), 3) == 0.0)
  }
}
