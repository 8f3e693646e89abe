package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.unsafe.types.UTF8String
import repro.docs.{DocLake, Naming, Setting}
import repro.llm.{LmPair, OpenExtraction, Profile, SimLM}

/** Evaporate-Direct (§3.1): call the LLM's open-extraction prompt on every
  * document of the lake; the LLM both identifies attributes and extracts
  * values. Attributes are then unioned across documents, ranked by
  * frequency, and the table is reported at the top-k attributes.
  *
  * The LLM calls are the view's one Spark job: each task calls the LLM on
  * its partition's rows, cleans the values, interns the attribute names and
  * sums the tokens; the ranking and the top-k cut run on the driver, and the
  * table is a local scan. A row whose `doc_id` or `text` is null is not sent
  * to the LLM: it yields no tuples and costs no tokens. Tokens grow linearly
  * with the lake, which is the cost pathology Evaporate-Code exists to fix.
  */
object EvaporateDirect {

  /** End-to-end OpenIE: schema identification + extraction in one pass. */
  def run(spark: SparkSession, setting: Setting, docs: DataFrame,
          profile: Profile, seed: Long, k: Int): StructuredView = {
    val lm  = SimLM(profile, setting, seed)
    val out = lakePass(docs, (id, text) => lm.openExtract(id, text))
    // Rank attributes by how many documents mention them (§3.1: prioritize
    // head attributes), ties by name, and keep the top-k for the table.
    val counts = out.docCounts
    val ranked = out.names.indices.sortBy(a => (-counts(a), out.names(a)))
    StructuredView(TupleSource.load(spark, out.viewRows(ranked.take(k).toSet)),
      ranked.map(out.names), Map("direct" -> out.tokens))
  }

  /** ClosedIE variant: the schema is given; prompt the LLM to extract each
    * named attribute from each document (prompt E.2), one call per row.
    */
  def runClosed(spark: SparkSession, setting: Setting, docs: DataFrame,
                profile: Profile, seed: Long, attrs: Seq[String]): StructuredView = {
    val lm  = SimLM(profile, setting, seed)
    val out = lakePass(docs, { (id, text) =>
      val results = lm.closedExtract(id, text, attrs)
      OpenExtraction(attrs.zip(results).map { case (a, (v, _)) => LmPair(a, v) }, results.map(_._2).sum)
    })
    StructuredView(TupleSource.load(spark, out.viewRows(_ => true)), attrs.map(Naming.normalize),
      Map("closed" -> out.tokens))
  }

  /** A value as a view reports it: leading and trailing U+0020 removed, as
    * Spark SQL's `trim` does (tabs and line breaks stay), or `None` for a
    * null value or one that is left empty.
    */
  private[core] def cleanValue(v: String): Option[String] = {
    val s     = if (v == null) "" else v
    val start = s.indexWhere(_ != ' ')
    if (start < 0) None else Some(s.substring(start, s.lastIndexWhere(_ != ' ') + 1))
  }

  /** The LLM's output on some lake rows: the rows' doc_ids; the tuples, in
    * row then pair order, as a row index, a normalized attribute name's id
    * and a cleaned value each; the names by id; and the token sum.
    */
  private final case class Tuples(docIds: Array[String], rows: Array[Int], attrs: Array[Int],
                                  values: Array[String], names: Array[String], tokens: Long) {

    /** Per attribute id, the number of distinct doc_ids with a tuple of it. */
    def docCounts: Array[Int] = {
      val counts = new Array[Int](names.length)
      rows.indices.map(t => (attrs(t), docIds(rows(t)))).distinct.foreach { case (a, _) => counts(a) += 1 }
      counts
    }

    /** The tuples of the attributes `keep` admits, as view rows: one
      * `UTF8String` per row's doc_id and per attribute, shared by its tuples.
      */
    def viewRows(keep: Int => Boolean): Array[InternalRow] = {
      val docUtf  = new Array[UTF8String](docIds.length)
      val attrUtf = names.map(UTF8String.fromString)
      rows.indices.filter(t => keep(attrs(t))).map { t =>
        val r = rows(t)
        if (docUtf(r) == null) docUtf(r) = UTF8String.fromString(docIds(r))
        InternalRow(docUtf(r), attrUtf(attrs(t)), UTF8String.fromString(values(t)))
      }.toArray
    }
  }

  /** The one Spark job both variants share: `llm` on every row whose doc_id
    * and text are both set. Each task keeps the pairs whose value cleans to
    * something and interns their surface names into its own dictionary,
    * normalizing each distinct name once; the driver merges the partitions'
    * dictionaries once.
    */
  private def lakePass(docs: DataFrame, llm: (String, String) => OpenExtraction): Tuples = {
    val parts = DocLake.perPartition(docs) { lake =>
      val ids     = Array.newBuilder[String]
      val rows    = Array.newBuilder[Int]
      val attrs   = Array.newBuilder[Int]
      val values  = Array.newBuilder[String]
      val names   = mutable.ArrayBuffer.empty[String]
      val nameId  = mutable.HashMap.empty[String, Int]
      val surface = mutable.HashMap.empty[String, Int] // the id of each surface name
      var tokens  = 0L
      lake.filter { case (id, text) => id != null && text != null }.zipWithIndex.foreach {
        case ((id, text), row) =>
          val out = llm(id, text)
          out.pairs.foreach { p =>
            cleanValue(p.value).foreach { v =>
              rows += row
              attrs += surface.getOrElseUpdate(p.attr, {
                val n = Naming.normalize(p.attr)
                nameId.getOrElseUpdate(n, { names += n; names.size - 1 })
              })
              values += v
            }
          }
          ids += id
          tokens += out.tokens
      }
      Tuples(ids.result(), rows.result(), attrs.result(), values.result(), names.toArray, tokens)
    }

    val nameId = mutable.HashMap.empty[String, Int]
    val names  = mutable.ArrayBuffer.empty[String]
    val firstRow = parts.scanLeft(0)(_ + _.docIds.length)
    val (rows, attrs) = parts.zip(firstRow).map { case (p, first) =>
      val id = p.names.map(n => nameId.getOrElseUpdate(n, { names += n; names.size - 1 }))
      (p.rows.map(_ + first), p.attrs.map(id))
    }.unzip
    Tuples(parts.flatMap(_.docIds), rows.flatten, attrs.flatten, parts.flatMap(_.values),
      names.toArray, parts.map(_.tokens).sum)
  }
}
