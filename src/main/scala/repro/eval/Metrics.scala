package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.docs.Naming

/** The paper's metrics (Appendix A).
  *
  *  - **Text F1** (ClosedIE): SQuAD-style token-level F1 over normalized
  *    tokens, exactly as in Rajpurkar et al. [50].
  *  - **Pair F1** (OpenIE): set F1 over (document, attribute, value)
  *    tuples with exact matching and no partial credit; systems are scored
  *    at k = the number of gold attributes for the setting.
  *  - **F1@k** (schema identification): set F1 between the top-k predicted
  *    attribute names and the gold attribute names.
  *
  * The two DataFrame metrics group both sides together instead of joining
  * them, collect a few rows once, and do not depend on how Spark partitions
  * the input or the shuffle.
  */
object Metrics {

  /** SQuAD normalization: lowercase, strip punctuation and articles. */
  def normalizeAnswer(s: String): Seq[String] =
    s.toLowerCase
      .replaceAll("[^a-z0-9\\s]", " ")
      .split("\\s+")
      .filter(t => t.nonEmpty && t != "a" && t != "an" && t != "the")
      .toSeq

  /** (token overlap, |pred tokens|, |gold tokens|) after normalization; a
    * gold token is matched at most once.
    */
  private def tokenCounts(pred: String, gold: String): (Int, Int, Int) = {
    val p = normalizeAnswer(Option(pred).getOrElse(""))
    val g = normalizeAnswer(Option(gold).getOrElse(""))
    val gCounts = g.groupBy(identity).view.mapValues(_.size).toMap
    var overlap = 0
    val seen    = scala.collection.mutable.Map.empty[String, Int]
    p.foreach { t =>
      val used = seen.getOrElse(t, 0)
      if (used < gCounts.getOrElse(t, 0)) { overlap += 1; seen(t) = used + 1 }
    }
    (overlap, p.size, g.size)
  }

  /** Token-level F1 between a prediction and a gold answer. Empty-vs-empty
    * scores 1 (both agree there is nothing to extract).
    */
  def textF1(pred: String, gold: String): Double = {
    val (overlap, nP, nG) = tokenCounts(pred, gold)
    if (nP == 0 && nG == 0) 1.0
    else if (overlap == 0) 0.0
    else {
      val prec = overlap.toDouble / nP
      val rec  = overlap.toDouble / nG
      2 * prec * rec / (prec + rec)
    }
  }

  /** `textF1` as an exact fraction (numerator, denominator): 2·overlap over
    * |pred| + |gold| tokens, (1, 1) when both are empty and (0, 1) when no
    * token overlaps.
    */
  private[eval] def textF1Fraction(pred: String, gold: String): (Int, Int) = {
    val (overlap, nP, nG) = tokenCounts(pred, gold)
    if (nP == 0 && nG == 0) (1, 1)
    else if (overlap == 0) (0, 1)
    else (2 * overlap, nP + nG)
  }

  final case class Prf(precision: Double, recall: Double, f1: Double)

  private def prf(nMatch: Long, nPred: Long, nGold: Long): Prf = {
    val p  = if (nPred == 0) 0.0 else nMatch.toDouble / nPred
    val r  = if (nGold == 0) 0.0 else nMatch.toDouble / nGold
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    Prf(p, r, f1)
  }

  // Side tags of a tuple: bit_or over a tuple's rows gives Pred, Gold or both.
  private val Pred = 1
  private val Gold = 2

  private val normAttr = udf((s: String) => Naming.normalize(s))

  /** Pair F1 between predicted and gold tuple DataFrames, both with columns
    * (doc_id, attr, value): exact matches only, no partial credit
    * (Appendix A).
    *
    * Attribute names are compared after `Naming.normalize`. Values have
    * internal whitespace collapsed to one space and are trimmed, on both
    * sides: multi-line values (e.g. RFC-822 continuation headers) are
    * otherwise unmatchable even when every token is extracted correctly.
    * Null and empty values are dropped, and each side is a set, so duplicate
    * tuples count once.
    */
  def pairF1(pred: DataFrame, gold: DataFrame): Prf = {
    def canon(df: DataFrame, side: Int): DataFrame =
      df.select(col("doc_id"), normAttr(col("attr")) as "attr",
          trim(regexp_replace(col("value"), "\\s+", " ")) as "value", lit(side) as "side")
        .where(col("value") =!= "")
    val sides = canon(pred, Pred).unionByName(canon(gold, Gold))
      .groupBy("doc_id", "attr", "value").agg(bit_or(col("side")) as "sides")
    val row = sides.agg(
      count(when(col("sides") =!= Gold, 1)),          // predicted tuples
      count(when(col("sides") =!= Pred, 1)),          // gold tuples
      count(when(col("sides") === (Pred | Gold), 1))  // matches
    ).collect()(0)
    prf(row.getLong(2), row.getLong(0), row.getLong(1))
  }

  /** ClosedIE Text F1: the mean token F1 over every (doc, attribute) slot
    * where either side has a row (Appendix A), both attribute names compared
    * after `Naming.normalize`.
    *
    *  - A slot with P predicted and G gold values contributes P×G scores, one
    *    per (predicted, gold) pairing, as a full outer join of the two sides
    *    on (doc_id, attr) would.
    *  - A side with no values in a slot reads as one "" value: an unpredicted
    *    gold value and a prediction for a slot with no gold row each score 0.
    *  - Null and empty predicted values are dropped; a null gold value is
    *    scored as "".
    *
    * Returns 0 when neither side has a row.
    */
  def closedTextF1(spark: SparkSession, pred: DataFrame, gold: DataFrame): Double = {
    val counts = closedScoreCounts(pred, gold)
    val n      = counts.map(_._2).sum
    if (n == 0) 0.0
    else counts.map { case ((num, den), c) => c * num.toDouble / den }.sum / n
  }

  private val pairFractions = udf { (pvs: collection.Seq[String], gvs: collection.Seq[String]) =>
    def orEmpty(vs: collection.Seq[String]) = if (vs.isEmpty) Seq("") else vs.toSeq
    for (pv <- orEmpty(pvs); gv <- orEmpty(gvs)) yield textF1Fraction(pv, gv)
  }

  /** The scores behind `closedTextF1`: how many (predicted, gold) pairings
    * score each `textF1Fraction`, in key order. Counting integer keys and
    * summing them in a fixed order on the driver makes the mean independent
    * of partitioning, which a floating-point sum on the executors is not.
    */
  private[eval] def closedScoreCounts(pred: DataFrame, gold: DataFrame): Seq[((Int, Int), Long)] = {
    val p = pred.select(col("doc_id"), normAttr(col("attr")) as "attr", col("value"),
        lit(Pred) as "side")
      .where(col("value") =!= "")
    val g = gold.select(col("doc_id"), normAttr(col("attr")) as "attr",
        coalesce(col("value"), lit("")) as "value", lit(Gold) as "side")
    def values(side: Int) = collect_list(when(col("side") === side, col("value")))
    p.unionByName(g)
      .groupBy("doc_id", "attr").agg(values(Pred) as "pv", values(Gold) as "gv")
      .select(explode(pairFractions(col("pv"), col("gv"))) as "f")
      .groupBy(col("f._1"), col("f._2")).count()
      .collect().toSeq
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getLong(2))
      .sorted
  }

  /** Schema F1@k: the top-k predicted attribute names vs. the gold set. */
  def f1AtK(predicted: Seq[String], goldAttrs: Seq[String], k: Int): Double = {
    val p = predicted.take(k).map(Naming.normalize).toSet
    val g = goldAttrs.map(Naming.normalize).toSet
    val m = p.intersect(g).size.toLong
    prf(m, p.size.toLong, g.size.toLong).f1
  }
}
