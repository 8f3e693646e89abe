package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, udf}
import repro.fn.{Extractor, ExtractorSet}
import repro.ws.Aggregation.Mode
import repro.ws.AggregationReference

/** Steps 2–4 of `EvaporateCode.apply` as they were written over strings,
  * before the lake pass interned its outputs: a UDF that returns each
  * document's outputs of the kept set, collected as `Row`s; one `Map` from
  * doc_id to prediction per attribute (the string-vote reference of
  * Algorithm 1); each attribute's tuples in that `Map`'s order; E.4 on the
  * first five. The reference the id path must equal, tuple for tuple and in
  * order, with the same token breakdown.
  */
object ApplyReference {

  def apply(plan: CodePlan, docs: DataFrame,
            modes: Seq[Mode]): Seq[(Seq[(String, String, String)], Map[String, Long])] = {
    val kept: Seq[Seq[(AttrPlan, Seq[Extractor])]] =
      modes.map(m => plan.attrs.map(a => (a, a.keep(m))).filter(_._2.nonEmpty))

    val lakeFns    = kept.flatten.flatMap(_._2).distinct.toIndexedSeq
    val slotOf     = lakeFns.zipWithIndex.toMap
    val lakeSet    = new ExtractorSet(lakeFns)
    val outputsUdf = udf { (text: String) => lakeSet.extract(text) }
    val outputs: Array[(String, IndexedSeq[String])] =
      if (lakeFns.isEmpty) Array.empty
      else docs.select(col("doc_id"), outputsUdf(col("text")))
        .collect().map(r => (r.getString(0), r.getSeq[String](1).toIndexedSeq))

    modes.zip(kept).map { case (mode, active) =>
      val predictions: Seq[(AttrPlan, Seq[(String, String, String)])] = active.map { case (a, fns) =>
        val slots = fns.map(slotOf).toIndexedSeq
        val rows  = outputs.toSeq.map { case (id, outs) => (id, slots.map(outs)) }
        a -> AggregationReference.aggregate(rows, a.e, mode)
          .collect { case (id, v) if v.nonEmpty => (id, a.attr, v) }.toSeq
      }
      val verdicts: Seq[(Boolean, Long)] = predictions.map { case (a, tuples) =>
        val vals = tuples.take(5).map(_._3)
        if (a.labels.isEmpty) (true, 0L)
        else if (vals.isEmpty) (false, 0L)
        else plan.lm.validateAttr(a.attr, vals)
      }
      val finalTuples = predictions.zip(verdicts).flatMap { case ((_, t), (ok, _)) => if (ok) t else Nil }
      (finalTuples, plan.tokens + ("validate" -> verdicts.map(_._2).sum))
    }
  }
}
