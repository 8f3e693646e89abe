package repro.fn

import scala.util.matching.Regex

/** The extractor-function DSL.
  *
  * In the paper, Evaporate-Code(+) prompts the LLM to synthesize Python
  * functions (`get_<attr>_field(text)`), which are then executed over every
  * document. In this reproduction a synthesized function is a node of this
  * serializable AST, interpreted by pure string operations — safe to ship
  * inside Spark UDF closures and cheap enough to run at scale: about
  * 20–35 µs per function-document pair on ~8 KB documents, as measured by
  * the benchmark's `fn.extract_us_per_pair` (the paper reports ~0.25 ms
  * per pair for its Python functions).
  *
  * The taxonomy mirrors the failure modes the paper observes: functions can
  * be *broken* (don't compile, so never produce a value), *narrow* (work
  * only on one formatting variant of the attribute — high precision, low
  * recall), *sloppy* (match but capture extra tokens or raw HTML), or
  * *generalized* (robust to case/markup variation).
  *
  * `extract` returns "" when the function finds nothing — the paper's
  * machine-generated functions never abstain explicitly, which is exactly
  * the gap Algorithm 1's abstention handling closes.
  *
  * Extractors are pure and compare structurally (case classes), so equal
  * extractors give equal outputs on every document; each compiles its
  * pattern once per instance, in a `@transient lazy val` that is compiled
  * again after Spark deserializes the instance.
  */
sealed trait Extractor extends Serializable {

  /** Raw extraction; may throw (an invalid `RegexCapture` pattern does). */
  protected def run(text: String): String

  /** Total extraction: never throws, "" on any failure. */
  final def extract(text: String): String =
    try {
      val out = run(text)
      if (out == null) "" else out.trim
    } catch { case scala.util.control.NonFatal(_) => "" }

  /** Human-readable description (stands in for the function source code). */
  def describe: String
}

object Extractor {

  /** Replace markup with spaces and collapse whitespace — shared by
    * extractors, the document parser, and the DOM baselines.
    */
  def stripTags(s: String): String =
    s.replaceAll("<[^>]*>", " ").replaceAll("\\s+", " ").trim

  /** Collapses equal functions so each distinct one runs once per document.
    *
    * @return the distinct functions of `fns` in first-occurrence order, and
    *         for each slot of `fns` the index of its function among them:
    *         `slots.map(i => outs(i))` with `outs = distinct.map(_.extract(t))`
    *         equals `fns.map(_.extract(t))`
    */
  def distinctSlots(fns: Seq[Extractor]): (IndexedSeq[Extractor], IndexedSeq[Int]) = {
    val distinct = fns.distinct.toIndexedSeq
    val index    = distinct.zipWithIndex.toMap
    (distinct, fns.map(index).toIndexedSeq)
  }

  /** A function with a syntax/logic error: never produces a value. It
    * returns "" rather than throwing, so the ablation modes that keep broken
    * candidates pay no exception per document.
    */
  final case class Broken(reason: String) extends Extractor {
    protected def run(text: String): String = ""
    def describe: String                    = s"broken($reason)"
  }

  /** `Label: value` line extractor — the dominant pattern for TXT lakes.
    *
    * @param continuation when true, indented continuation lines are folded
    *                     into the value (multi-line email headers); when
    *                     false the value is truncated at the newline.
    */
  final case class KeyColon(label: String, caseInsensitive: Boolean,
                            continuation: Boolean) extends Extractor {
    @transient private lazy val pat = {
      val flags = if (caseInsensitive) "(?im)" else "(?m)"
      new Regex(flags + "^" + Regex.quote(label) + ":[ \\t]*(.*)$")
    }
    protected def run(text: String): String =
      pat.findFirstMatchIn(text) match {
        case None => ""
        case Some(m) =>
          var value = m.group(1)
          if (continuation) {
            // `m.end` sits just before the newline that closed the matched
            // line — skip it so the first continuation line is inspected.
            val rest  = text.substring(m.end).stripPrefix("\r").stripPrefix("\n")
            val lines = rest.split("\n", -1).iterator
            val sb    = new StringBuilder(value)
            var go    = true
            while (go && lines.hasNext) {
              val l = lines.next()
              if (l.startsWith("\t") || l.startsWith("    ")) sb.append(" ").append(l.trim)
              else go = false
            }
            value = sb.toString
          }
          value
      }
    def describe: String = s"keycolon('$label', ci=$caseInsensitive, cont=$continuation)"
  }

  /** Regex with one capture group (or the whole match when there is none) —
    * what prompt P_A (regex-flavored) tends to produce.
    */
  final case class RegexCapture(pattern: String) extends Extractor {
    @transient private lazy val compiled = new Regex(pattern)
    protected def run(text: String): String =
      compiled.findFirstMatchIn(text) match {
        case None    => ""
        case Some(m) => if (m.groupCount >= 1) Option(m.group(1)).getOrElse("") else m.matched
      }
    def describe: String = s"regex($pattern)"
  }

  /** Substring between two literal anchors — synthesized from inline-prose
    * renderings ("the submission number K123456 was assigned").
    */
  final case class Between(start: String, end: String) extends Extractor {
    protected def run(text: String): String = {
      val i = text.indexOf(start)
      if (i < 0) return ""
      val from = i + start.length
      val j    = text.indexOf(end, from)
      if (j < 0) "" else text.substring(from, j)
    }
    def describe: String = s"between('$start','$end')"
  }

  /** HTML label/value row (`<tr><th>Label</th><td>value</td></tr>` and
    * infobox variants). `stripMarkup=false` reproduces the common LLM bug of
    * returning raw inner HTML.
    */
  final case class TagRow(label: String, caseInsensitive: Boolean,
                          stripMarkup: Boolean, valueTag: String = "td") extends Extractor {
    @transient private lazy val pat = {
      val flags = if (caseInsensitive) "(?is)" else "(?s)"
      val vt    = Regex.quote(valueTag)
      new Regex(
        flags + ">\\s*" + Regex.quote(label) + "\\s*</[a-z0-9]+>\\s*<" + vt + "[^>]*>(.*?)</" + vt + ">"
      )
    }
    protected def run(text: String): String =
      pat.findFirstMatchIn(text) match {
        case None    => ""
        case Some(m) => if (stripMarkup) stripTags(m.group(1)) else m.group(1).trim
      }
    def describe: String = s"tagrow('$label', ci=$caseInsensitive, strip=$stripMarkup, tag=$valueTag)"
  }

  /** `<meta itemprop|name|property="prop" content="value">` extractor. */
  final case class MetaContent(prop: String) extends Extractor {
    @transient private lazy val pat = new Regex(
      "(?i)<meta[^>]*(?:itemprop|name|property)=\"" + Regex.quote(prop) + "\"[^>]*content=\"([^\"]*)\""
    )
    protected def run(text: String): String =
      pat.findFirstMatchIn(text).map(_.group(1)).getOrElse("")
    def describe: String = s"meta('$prop')"
  }

  /** `<title>value SEP site</title>` extractor. */
  final case class TitleBefore(sep: String) extends Extractor {
    @transient private lazy val pat = new Regex("(?is)<title>(.*?)</title>")
    protected def run(text: String): String =
      pat.findFirstMatchIn(text) match {
        case None => ""
        case Some(m) =>
          val t = m.group(1)
          val i = t.indexOf(sep)
          if (i < 0) t.trim else t.substring(0, i).trim
      }
    def describe: String = s"titleBefore('$sep')"
  }

  /** `<a href="/prefix/...">value</a>` extractor — attributes encoded in
    * link targets, which DOM-leaf baselines ignore (the SWDE-Plus point).
    */
  final case class HrefAnchor(prefix: String) extends Extractor {
    @transient private lazy val pat =
      new Regex("(?i)<a href=\"" + Regex.quote(prefix) + "[^\"]*\"[^>]*>(.*?)</a>")
    protected def run(text: String): String =
      pat.findFirstMatchIn(text).map(m => stripTags(m.group(1))).getOrElse("")
    def describe: String = s"href('$prefix')"
  }

  /** Wraps a working extractor with the paper's "sloppy" failure mode:
    * the function matches the right region but mis-captures the value.
    *
    * @param mode 0 = append `extra` after the value; 1 = truncate
    *             to the first token; any other = prepend `extra`.
    */
  final case class Sloppy(inner: Extractor, mode: Int, extra: String) extends Extractor {
    protected def run(text: String): String = {
      val base = inner.extract(text)
      if (base.isEmpty) ""
      else mode match {
        case 0 => base + " " + extra
        case 1 => base.split("\\s+").headOption.getOrElse("")
        case _ => extra + " " + base
      }
    }
    def describe: String = s"sloppy(${inner.describe}, mode=$mode)"
  }
}
