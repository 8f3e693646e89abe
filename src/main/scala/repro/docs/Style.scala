package repro.docs

import scala.util.matching.Regex
import repro.fn.Extractor
import repro.fn.Extractor._
import repro.util.Rng

/** A field rendering style — how one attribute-value pair is embedded in a
  * document.
  *
  * Each style knows how to:
  *   - `render` a value into document text,
  *   - name the `reader` that reads the value back out: the extractor the
  *     simulated LLM's perfect "reading comprehension" runs (`DocParser`),
  *     its ground for extraction before noise,
  *   - build the extractors a synthesized function would implement:
  *     `narrowPA` (what the regex-flavored prompt P_A produces — anchored on
  *     the exact surface observed in one sample chunk, often value-shape
  *     sensitive), `narrowPB` (what the library-flavored prompt P_B
  *     produces), and `general` (the robust, case/markup-insensitive
  *     extractor a lucky generation yields).
  *
  * `complexity` in [0,1] drives how likely weaker models are to produce
  * broken functions for this style (Table 5's per-provider gaps): rigid
  * `Key: value` headers are trivial; nested-markup infobox rows are hard.
  */
sealed trait Style extends Serializable {
  def render(value: String, rng: Rng): String

  /** The extractor that reads this style's value back out of a document,
    * exactly as rendered; its match start is the field's offset.
    */
  def reader: Extractor = narrowPB

  def narrowPA(observedValue: String): Extractor
  def narrowPB: Extractor
  def general: Extractor
  def complexity: Double

  /** True for styles rendered as HTML-DOM leaf label/value pairs — the only
    * region DOM-based baselines (Table 2) can see. The baselines find those
    * rows in the HTML themselves (`DomBaselines.leafPairs`); only tests read
    * this flag, to check which attributes a setting hides from them.
    */
  def domLeaf: Boolean = false

  /** The literal label text rendered next to the value, if any. Only tests
    * read it, to check that filler prose never contains a label.
    */
  def labelText: Option[String] = None
}

object Style {

  /** Regex matching the *shape* of an observed value: digits become \d,
    * uppercase letters [A-Z], lowercase [a-z]. This is what a regex-happy
    * synthesis tends to produce from one example — and why it misses the
    * minority lowercase-"k" product codes the paper describes.
    */
  private[docs] def shapePattern(v: String): String = {
    val sb = new StringBuilder("\\b")
    v.foreach {
      case c if c.isDigit              => sb.append("\\d")
      case c if c.isUpper && c.isLetter => sb.append("[A-Z]")
      case c if c.isLower && c.isLetter => sb.append("[a-z]")
      case ' '                          => sb.append(" ")
      case c                            => sb.append(Regex.quote(c.toString))
    }
    sb.append("\\b").toString
  }

  /** `Label: value` on its own line (TXT lakes: FDA reports, email headers).
    *
    * @param multilineValues when true, values may contain embedded
    *                        `\n\t`-indented continuation lines (RFC-822
    *                        style); line-anchored regex extractors truncate
    *                        these, continuation-aware ones do not.
    */
  final case class KeyColonStyle(label: String, complexity: Double = 0.1,
                                 multilineValues: Boolean = false) extends Style {
    def render(value: String, rng: Rng): String = s"$label: $value"

    override def reader: Extractor = KeyColon(label, caseInsensitive = false, continuation = multilineValues)

    def narrowPA(observedValue: String): Extractor =
      RegexCapture("(?m)^" + Regex.quote(label) + ":[ \\t]*(.*)$")
    def narrowPB: Extractor = KeyColon(label, caseInsensitive = false, continuation = true)
    def general: Extractor  = KeyColon(label, caseInsensitive = true, continuation = true)
    override def labelText: Option[String] = Some(label)
  }

  /** Value embedded in prose between two literal anchors. */
  final case class InlineStyle(prefix: String, suffix: String,
                               complexity: Double = 0.55) extends Style {
    def render(value: String, rng: Rng): String = s"$prefix$value$suffix"

    // P_A keys on the value's shape seen in the sample chunk — brittle to
    // shape drift (lowercase codes, longer names).
    def narrowPA(observedValue: String): Extractor = RegexCapture("(" + shapePattern(observedValue) + ")")
    def narrowPB: Extractor = Between(prefix, suffix)
    def general: Extractor  = Between(prefix, suffix)
  }

  /** HTML table/infobox row: `<tr><th ..>Label</th><td ..>value</td></tr>`.
    *
    * @param nested when true, the value is wrapped in nested spans/anchors
    *               (Wikipedia infobox compound values); extractors that do
    *               not strip markup return raw HTML and score poorly.
    */
  final case class TagRowStyle(label: String, valueTag: String = "td",
                               cls: String = "", nested: Boolean = false,
                               complexity: Double = 0.45) extends Style {

    private def nest(value: String, rng: Rng): String = {
      val ws = value.split(" ")
      if (ws.length < 3) s"""<span class="v">$value</span>"""
      else {
        val a = ws.length / 3; val b = 2 * ws.length / 3
        s"""<span class="s1">${ws.slice(0, a).mkString(" ")}</span> ${ws.slice(a, b).mkString(" ")}<br/><a href="/wiki/${rng.int(999)}">${ws.slice(b, ws.length).mkString(" ")}</a>"""
      }
    }

    def render(value: String, rng: Rng): String = {
      val inner   = if (nested) nest(value, rng) else value
      val clsAttr = if (cls.isEmpty) "" else s""" class="$cls""""
      s"""<tr><th scope="row">$label</th><$valueTag$clsAttr>$inner</$valueTag></tr>"""
    }

    // P_A returns the raw inner HTML (no markup stripping) — fine for plain
    // rows, sloppy for nested ones, exactly the variance the paper observes.
    def narrowPA(observedValue: String): Extractor = RegexCapture(
      "(?s)>\\s*" + Regex.quote(label) + "\\s*</th>\\s*<" + Regex.quote(valueTag) +
        "[^>]*>(.*?)</" + Regex.quote(valueTag) + ">"
    )
    def narrowPB: Extractor = TagRow(label, caseInsensitive = false, stripMarkup = true, valueTag)
    def general: Extractor  = TagRow(label, caseInsensitive = true, stripMarkup = true, valueTag)
    override def domLeaf: Boolean          = true
    override def labelText: Option[String] = Some(label)
  }

  /** `<meta itemprop="prop" content="value"/>` — lives in the HTML head,
    * invisible to DOM-leaf baselines.
    */
  final case class MetaStyle(prop: String, complexity: Double = 0.3) extends Style {
    def render(value: String, rng: Rng): String =
      s"""<meta itemprop="$prop" content="$value"/>"""

    def narrowPA(observedValue: String): Extractor =
      RegexCapture("<meta[^>]*itemprop=\"" + Regex.quote(prop) + "\"[^>]*content=\"([^\"]*)\"")
    def narrowPB: Extractor = MetaContent(prop)
    def general: Extractor  = MetaContent(prop)
  }

  /** `<title>value SEP Site</title>` — also outside the DOM body. */
  final case class TitleStyle(sep: String, siteName: String,
                              complexity: Double = 0.3) extends Style {
    def render(value: String, rng: Rng): String = s"<title>$value$sep$siteName</title>"

    def narrowPA(observedValue: String): Extractor =
      RegexCapture("(?is)<title>(.*?)" + Regex.quote(sep))
    def narrowPB: Extractor = TitleBefore(sep)
    def general: Extractor  = TitleBefore(sep)
  }

  /** `<a href="/prefix/slug">value</a>` — attribute encoded in a link. */
  final case class HrefStyle(prefix: String, complexity: Double = 0.5) extends Style {
    def render(value: String, rng: Rng): String = {
      val slug = value.toLowerCase.replaceAll("[^a-z0-9]+", "-")
      s"""<a href="$prefix$slug">$value</a>"""
    }

    def narrowPA(observedValue: String): Extractor =
      RegexCapture("(?i)<a href=\"" + Regex.quote(prefix) + "[^\"]*\"[^>]*>([^<]*)</a>")
    def narrowPB: Extractor = HrefAnchor(prefix)
    def general: Extractor  = HrefAnchor(prefix)
  }
}
