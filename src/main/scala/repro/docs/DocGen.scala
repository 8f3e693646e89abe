package repro.docs

import java.nio.charset.StandardCharsets.ISO_8859_1
import repro.util.Rng

/** A rendered document plus its ground truth.
  *
  * @param gold       attribute -> value, for attributes present in this doc
  * @param variantIdx attribute -> index of the formatting variant used
  */
final case class RenderedDoc(
    id: String,
    text: String,
    gold: Map[String, String],
    variantIdx: Map[String, Int],
)

/** Non-field prose. Word bank deliberately avoids every attribute label so
  * filler cannot collide with field parsing.
  */
object Filler {
  private val words: Vector[String] = Vector(
    "overall", "the", "this", "analysis", "describes", "procedure", "was",
    "conducted", "according", "to", "established", "protocols", "and",
    "results", "were", "within", "expected", "ranges", "further", "details",
    "are", "provided", "in", "appendix", "material", "additional",
    "considerations", "apply", "throughout", "evaluation", "process",
    "summary", "findings", "indicate", "consistent", "behavior", "across",
    "conditions", "tested", "during", "assessment", "period", "observed",
    "outcomes", "support", "stated", "conclusions", "under", "normal",
    "operating", "circumstances")

  // Each word's bytes, plain and capitalised: the bank is ASCII, so one byte
  // per char of a Latin-1 `String`.
  private val plain: Array[Array[Byte]]   = words.map(_.getBytes(ISO_8859_1)).toArray
  private val capital: Array[Array[Byte]] = words.map(_.capitalize.getBytes(ISO_8859_1)).toArray
  private val maxWordBytes: Int           = plain.map(_.length).max

  /** `nWords` words drawn from the bank (word `i` by `rng.derive("w", i)`),
    * written in their final form in one pass into a byte buffer that the
    * `String` copies once: the first word capitalised, a sentence break
    * `". "` before every 12th word (the next sentence starts in lower case),
    * and a closing `"."`. `"."` alone when `nWords <= 0`.
    */
  def paragraph(rng: Rng, nWords: Int): String = {
    val draw = rng.indexed("w")
    val buf  = new Array[Byte](math.max(nWords, 0) * (maxWordBytes + 2) + 1)
    var len  = 0
    var i    = 0
    while (i < nWords) {
      val k = draw(i).int(plain.length)
      val w =
        if (i == 0) capital(k)
        else {
          if (i % 12 == 0) { buf(len) = '.'.toByte; len += 1 }
          buf(len) = ' '.toByte; len += 1
          plain(k)
        }
      System.arraycopy(w, 0, buf, len, w.length)
      len += w.length
      i += 1
    }
    buf(len) = '.'.toByte
    new String(buf, 0, len + 1, ISO_8859_1)
  }
}

/** Deterministic document renderer: (setting, docIdx, seed) -> RenderedDoc.
  *
  * Layout: `nSections` sections, each a filler paragraph followed by the
  * fields assigned to that section (order shuffled per document). For HTML
  * settings, section 0 is the `<head>` (title/meta fields) and body field
  * rows are wrapped in a `<table class="infobox">`.
  */
object DocGen {

  def docId(setting: Setting, idx: Long): String = s"${setting.name}-doc-$idx"

  def render(setting: Setting, idx: Long, seed: Long): RenderedDoc = {
    val rng = Rng(seed).derive(setting.name, idx)

    // Decide presence, value and variant per attribute.
    val fields = setting.attrs.flatMap { a =>
      val arng = rng.derive(a.name)
      if (arng.derive("cov").double >= a.coverage) None
      else {
        val value = a.valueGen(arng.derive("val"))
        val vIdx =
          if (a.variants.size == 1) 0
          else arng.derive("variant").pickWeighted(a.variants.indices.map(i => (i, a.variants(i)._2)))
        val style    = a.variants(vIdx)._1
        val rendered = style.render(value, arng.derive("render"))
        Some((a, value, vIdx, rendered))
      }
    }

    val bySection = fields.groupBy { case (a, _, _, _) => a.section % setting.nSections }

    def sectionFields(s: Int): Seq[String] = {
      val fs = bySection.getOrElse(s, Seq.empty)
      rng.derive("order", s).shuffle(fs.map(_._4))
    }

    val text =
      if (!setting.isHtml) {
        (0 until setting.nSections).map { s =>
          val filler = Filler.paragraph(rng.derive("filler", s), setting.fillerWordsPerSection)
          (sectionFields(s) :+ filler).mkString("\n")
        }.mkString("\n\n")
      } else {
        val head = sectionFields(0).mkString("\n")
        val body = (1 until setting.nSections).map { s =>
          val filler = Filler.paragraph(rng.derive("filler", s), setting.fillerWordsPerSection)
          val fs     = sectionFields(s)
          val (rows, other) = fs.partition(_.startsWith("<tr>"))
          val tableBlock =
            if (rows.isEmpty) ""
            else "<table class=\"infobox\">\n" + rows.mkString("\n") + "\n</table>"
          Seq(s"<p>$filler</p>", other.mkString("\n"), tableBlock)
            .filter(_.nonEmpty).mkString("\n")
        }.mkString("\n")
        s"<html>\n<head>\n$head\n</head>\n<body>\n$body\n</body>\n</html>"
      }

    RenderedDoc(
      id = docId(setting, idx),
      text = text,
      gold = fields.map { case (a, v, _, _) => a.name -> v }.toMap,
      variantIdx = fields.map { case (a, _, vi, _) => a.name -> vi }.toMap,
    )
  }

  def corpus(setting: Setting, nDocs: Int, seed: Long): Seq[RenderedDoc] =
    (0L until nDocs.toLong).map(render(setting, _, seed))
}

/** Perfect "reading comprehension" over rendered documents: an attribute's
  * field is its first variant whose reader (`Style.reader`, run by the
  * extractor interpreter) finds a value, at that reader's match start. This
  * is the ground the simulated LLM perceives *before* its noise processes
  * (misses, rewordings, hallucinations) are applied — it never consults the
  * generator's gold map directly.
  */
object DocParser {

  final case class ParsedField(attr: String, value: String, offset: Int)

  /** Every attribute of `setting` found in `text`, in attribute order, each
    * field with the attribute it was read for: one run of the setting's
    * readers, whose hits hold each attribute's variants in order.
    */
  def read(setting: Setting, text: String): Seq[(AttrSpec, ParsedField)] = {
    val hits = setting.readers.hits(text)
    setting.attrs.zip(setting.attrs.scanLeft(0)(_ + _.variants.size)).flatMap { case (a, from) =>
      hits.slice(from, from + a.variants.size).find(_.value.nonEmpty)
        .map(h => a -> ParsedField(a.name, h.value, h.start))
    }
  }
}
