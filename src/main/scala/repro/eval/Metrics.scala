package repro.eval

import java.util.regex.Pattern
import org.apache.spark.sql.{DataFrame, SparkSession}
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
  * The two DataFrame metrics read each side with one `collect()` and apply
  * Appendix A on the driver, with no shuffle: their inputs are small tuple
  * tables (the paper scores 10-document samples), and a result cannot
  * depend on how Spark partitions them.
  */
object Metrics {

  private val Punctuation = Pattern.compile("[^a-z0-9\\s]")
  private val Spaces      = Pattern.compile("\\s+")

  /** SQuAD normalization: lowercase, strip punctuation and articles. */
  def normalizeAnswer(s: String): Seq[String] =
    Spaces.split(Punctuation.matcher(s.toLowerCase).replaceAll(" "))
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

  private type Tuple = (String, String, String)

  /** A (doc_id, attr, value) table, read with one `collect()`, with its
    * attribute names passed through `Naming.normalize`.
    */
  private def tuples(df: DataFrame): Seq[Tuple] =
    df.select("doc_id", "attr", "value").collect().toSeq
      .map(r => (r.getString(0), Naming.normalize(r.getString(1)), r.getString(2)))

  /** Pair F1 between predicted and gold tuple DataFrames, both with columns
    * (doc_id, attr, value): exact matches only, no partial credit
    * (Appendix A).
    *
    * Attribute names are compared after `Naming.normalize`. Values have each
    * `\s+` run collapsed to one space and leading and trailing U+0020 removed
    * (Spark SQL's `trim`: other whitespace stays), on both sides: multi-line
    * values (e.g. RFC-822 continuation headers) are otherwise unmatchable
    * even when every token is extracted correctly. Null and empty values are
    * dropped, and each side is a set, so duplicate tuples count once.
    */
  def pairF1(pred: DataFrame, gold: DataFrame): Prf = {
    // The collapse leaves at most one space at either end.
    def canon(df: DataFrame): Set[Tuple] = tuples(df).collect {
      case (d, a, v) if v != null => (d, a, Spaces.matcher(v).replaceAll(" ").stripPrefix(" ").stripSuffix(" "))
    }.filter(_._3.nonEmpty).toSet
    val (p, g) = (canon(pred), canon(gold))
    prf(p.intersect(g).size.toLong, p.size.toLong, g.size.toLong)
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
    * Returns 0 when neither side has a row. `spark` is not used.
    */
  def closedTextF1(spark: SparkSession, pred: DataFrame, gold: DataFrame): Double = {
    val counts = closedScoreCounts(pred, gold)
    val n      = counts.map(_._2).sum
    if (n == 0) 0.0
    else counts.map { case ((num, den), c) => c * num.toDouble / den }.sum / n
  }

  /** The scores behind `closedTextF1`: how many (predicted, gold) pairings
    * score each `textF1Fraction`, in key order. Summing integer counts in a
    * fixed order keeps the mean independent of the input's row order and
    * partitioning.
    */
  private[eval] def closedScoreCounts(pred: DataFrame, gold: DataFrame): Seq[((Int, Int), Long)] = {
    def slots(ts: Seq[Tuple]) = ts.groupMap(t => (t._1, t._2))(_._3)
    val p = slots(tuples(pred).filter(t => t._3 != null && t._3.nonEmpty))
    val g = slots(tuples(gold).map(t => t.copy(_3 = Option(t._3).getOrElse(""))))
    val fractions = (p.keySet ++ g.keySet).toSeq.flatMap { slot =>
      for (pv <- p.getOrElse(slot, Seq("")); gv <- g.getOrElse(slot, Seq("")))
        yield textF1Fraction(pv, gv)
    }
    fractions.groupMapReduce(identity)(_ => 1L)(_ + _).toSeq.sorted
  }

  /** Schema F1@k: the top-k predicted attribute names vs. the gold set. */
  def f1AtK(predicted: Seq[String], goldAttrs: Seq[String], k: Int): Double = {
    val p = predicted.take(k).map(Naming.normalize).toSet
    val g = goldAttrs.map(Naming.normalize).toSet
    val m = p.intersect(g).size.toLong
    prf(m, p.size.toLong, g.size.toLong).f1
  }
}
