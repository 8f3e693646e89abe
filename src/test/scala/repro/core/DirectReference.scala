package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions.{col, udf}
import repro.docs.{Naming, Setting}
import repro.llm.{LmPair, OpenExtraction, Profile, SimLM}

/** `EvaporateDirect.run` and `runClosed` as they were written before the LLM
  * ran per partition: a UDF that returns each document's `OpenExtraction`,
  * collected through its encoder; each pair's name normalized and value
  * cleaned on the driver; attributes ranked by a `Set` of doc_ids each. The
  * reference the per-partition pass must equal: the same tuples in the same
  * order, the same ranked schema and the same token breakdown. Like the path
  * it keeps, it throws on a null doc_id or text.
  */
object DirectReference {

  type View = (Seq[(String, String, String)], Seq[String], Map[String, Long])

  def run(setting: Setting, docs: DataFrame, profile: Profile, seed: Long, k: Int): View = {
    val lm = SimLM(profile, setting, seed)
    val (tuples, tokens) =
      extract(docs, udf((id: String, text: String) => lm.openExtract(id, text)))
    val ranked = tuples.groupMapReduce(_._2)(t => Set(t._1))(_ ++ _).toSeq
      .sortBy { case (attr, docIds) => (-docIds.size, attr) }.map(_._1)
    val top = ranked.take(k).toSet
    (tuples.filter(t => top(t._2)), ranked, Map("direct" -> tokens))
  }

  def runClosed(setting: Setting, docs: DataFrame, profile: Profile, seed: Long,
                attrs: Seq[String]): View = {
    val lm = SimLM(profile, setting, seed)
    val (tuples, tokens) = extract(docs, udf { (id: String, text: String) =>
      val results = attrs.map(a => lm.closedExtract(id, text, a))
      OpenExtraction(attrs.zip(results).map { case (a, (v, _)) => LmPair(a, v) }, results.map(_._2).sum)
    })
    (tuples, attrs.map(Naming.normalize), Map("closed" -> tokens))
  }

  private def extract(docs: DataFrame, extractUdf: UserDefinedFunction)
      : (Seq[(String, String, String)], Long) = {
    import docs.sparkSession.implicits._
    val outs = docs.select(col("doc_id"), extractUdf(col("doc_id"), col("text")))
      .as[(String, OpenExtraction)].collect().toSeq
    val tuples = outs.flatMap { case (id, out) =>
      out.pairs.flatMap(p => EvaporateDirect.cleanValue(p.value).map(v => (id, Naming.normalize(p.attr), v)))
    }
    (tuples, outs.map(_._2.tokens).sum)
  }
}
