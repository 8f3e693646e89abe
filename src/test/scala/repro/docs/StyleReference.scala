package repro.docs

import scala.collection.mutable
import scala.util.matching.Regex
import repro.docs.Style._
import repro.fn.Extractor

/** Each field format as the standalone regex that defines it, kept as the
  * reference the styles' readers must equal on rendered documents: the
  * value (trimmed) and the start of the match, or `None`.
  */
object StyleReference {

  private val compiled = mutable.HashMap.empty[String, Regex]
  private def regex(p: String): Regex = compiled.getOrElseUpdate(p, new Regex(p))

  private def first(p: String, text: String, value: String => String = _.trim): Option[(String, Int)] =
    regex(p).findFirstMatchIn(text).map(m => (value(m.group(1)), m.start))

  def parse(style: Style, text: String): Option[(String, Int)] = style match {
    case KeyColonStyle(label, _, multilineValues) =>
      regex("(?m)^" + Regex.quote(label) + ":[ \\t]*(.*)$").findFirstMatchIn(text).map { m =>
        var value = m.group(1)
        if (multilineValues) {
          val rest = text.substring(m.end).stripPrefix("\r").stripPrefix("\n")
          value += rest.split("\n", -1).iterator
            .takeWhile(l => l.startsWith("\t") || l.startsWith("    "))
            .map(l => " " + l.trim).mkString
        }
        (value.trim, m.start)
      }
    case InlineStyle(prefix, suffix, _) =>
      first("(?s)" + Regex.quote(prefix) + "(.*?)" + Regex.quote(suffix), text)
    case TagRowStyle(label, valueTag, _, _, _) =>
      first("(?s)>\\s*" + Regex.quote(label) + "\\s*</th>\\s*<" + Regex.quote(valueTag) +
        "[^>]*>(.*?)</" + Regex.quote(valueTag) + ">", text, Extractor.stripTags)
    case MetaStyle(prop, _) =>
      first("(?i)<meta[^>]*itemprop=\"" + Regex.quote(prop) + "\"[^>]*content=\"([^\"]*)\"", text)
    case TitleStyle(sep, _, _) =>
      first("(?is)<title>(.*?)" + Regex.quote(sep), text)
    case HrefStyle(prefix, _) =>
      first("(?i)<a href=\"" + Regex.quote(prefix) + "[^\"]*\"[^>]*>(.*?)</a>", text)
  }

  /** `attr`'s field in `text`: the first variant whose regex matches. */
  def parse(attr: AttrSpec, text: String): Option[DocParser.ParsedField] =
    attr.variants.iterator.flatMap { case (style, _) => parse(style, text) }.take(1).toSeq.headOption
      .map { case (v, off) => DocParser.ParsedField(attr.name, v, off) }

  /** Every attribute of `setting` found in `text`, in attribute order. */
  def parse(setting: Setting, text: String): Seq[DocParser.ParsedField] =
    setting.attrs.flatMap(parse(_, text))
}
