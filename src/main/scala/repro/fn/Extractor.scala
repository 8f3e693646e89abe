package repro.fn

import java.util.regex.{Matcher, Pattern}
import scala.collection.mutable
import scala.util.control.NonFatal
import scala.util.matching.Regex

/** The extractor-function DSL.
  *
  * In the paper, Evaporate-Code(+) prompts the LLM to synthesize Python
  * functions (`get_<attr>_field(text)`), which are then executed over every
  * document. In this reproduction a synthesized function is a node of this
  * serializable AST, interpreted by pure string operations — safe to ship
  * inside Spark task closures and cheap enough to run at scale. Every kind
  * that reads a document with a regex is a [[Extractor.RegexKind]], which
  * finds its leftmost match through [[FirstMatch]], the one regex runtime.
  * Functions run together as an [[ExtractorSet]], whose shared line and row
  * indexes give the key-colon and row regexes their match starts. Measured
  * on a 4-vCPU VM (JDK 17, one thread, warm JVM, 1,000 rendered documents,
  * the full-Algorithm-1 kept set at system seed 42, median of 3 runs of the
  * median of 9 passes): FDA's 41 kept functions take 42 µs per ~9.7k-char
  * document, Wiki NBA's 51 take 69 µs per ~18k chars, SWDE Movie's 24 take
  * 24 µs per ~6.8k chars and Enron's 50 take 25 µs per ~1.2k chars. The paper
  * reports ~0.25 ms per function-document pair for its Python functions. The
  * simulated LLM reads documents through the same interpreter: each field
  * format names its exact reader (`Style.reader`).
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

  /** Raw extraction from one document's shared scan, with the start of the
    * match it read the value from; may throw (an invalid `RegexCapture`
    * pattern does).
    */
  private[fn] def run(scan: ExtractorSet.Scan): ExtractorSet.Hit

  /** Total extraction: never throws, "" on any failure or a null text. The
    * one-member [[ExtractorSet]].
    */
  final def extract(text: String): String = new ExtractorSet(Seq(this)).extract(text).head

  /** Human-readable description (stands in for the function source code). */
  def describe: String
}

object Extractor {
  import ExtractorSet.{Hit, Miss}

  private val Tag    = Pattern.compile("<[^>]*>")
  private val Spaces = Pattern.compile("\\s+")

  /** Replace markup with spaces and collapse whitespace — shared by
    * extractors and the baselines.
    */
  def stripTags(s: String): String =
    Spaces.matcher(Tag.matcher(s).replaceAll(" ")).replaceAll(" ").trim

  /** `s` with ASCII letters lower-cased and every other char kept: the case
    * folding of a `(?i)` regex without UNICODE_CASE.
    */
  private[fn] def asciiLower(s: String): String = {
    var i = 0
    while (i < s.length && !isAsciiUpper(s.charAt(i))) i += 1
    if (i == s.length) return s
    val cs = s.toCharArray
    while (i < cs.length) {
      if (isAsciiUpper(cs(i))) cs(i) = (cs(i) | 0x20).toChar
      i += 1
    }
    new String(cs)
  }

  /** `c` with an ASCII upper-case letter lowered: [[asciiLower]] of one char. */
  private[fn] def asciiLower(c: Char): Char = if (isAsciiUpper(c)) (c | 0x20).toChar else c

  private def isAsciiUpper(c: Char): Boolean = c >= 'A' && c <= 'Z'

  /** A line terminator of `java.util.regex` without UNIX_LINES: what `.`
    * does not match and what `^` follows under MULTILINE.
    */
  private[fn] def isLineEnd(c: Char): Boolean =
    c == '\n' || c == '\r' || c == '\u0085' || c == '\u2028' || c == '\u2029'

  /** The regex class `\s`: `[ \t\n\x0B\f\r]`. */
  private[fn] def isSpace(c: Char): Boolean =
    c == ' ' || c == '\t' || c == '\n' || c == '\u000B' || c == '\f' || c == '\r'

  /** A function with a syntax/logic error: never produces a value. It
    * returns "" rather than throwing, so the ablation modes that keep broken
    * candidates pay no exception per document.
    */
  final case class Broken(reason: String) extends Extractor {
    private[fn] def run(scan: ExtractorSet.Scan): Hit = Miss
    def describe: String                              = s"broken($reason)"
  }

  /** A kind that reads a document with one regex: the value comes from the
    * regex's leftmost match, found by [[FirstMatch]], which tries the regex
    * only where its matches can start: at the sites of the scan's line or row
    * index for the key-colon and row forms, and otherwise where its leading
    * literal occurs. The match starts the hit.
    */
  sealed trait RegexKind extends Extractor {
    /** The pattern, compiled once per instance. */
    private[fn] def regex: String
    /** The value the leftmost match in `text` gives. */
    protected def value(m: Matcher, text: String): String

    @transient private[fn] lazy val firstMatch = new FirstMatch(regex)
    private[fn] final def run(scan: ExtractorSet.Scan): Hit =
      firstMatch.in(scan).fold(Miss)(m => Hit(value(m, scan.text), m.start))
  }

  /** `Label: value` line extractor — the dominant pattern for TXT lakes: the
    * regex `(?m)^label:[ \t]*(.*)$` (`(?im)` when case-insensitive), which
    * reads the first line that opens with `label:`.
    *
    * @param continuation when true, indented continuation lines are folded
    *                     into the value (multi-line email headers); when
    *                     false the value is truncated at the newline.
    */
  final case class KeyColon(label: String, caseInsensitive: Boolean,
                            continuation: Boolean) extends RegexKind {
    private[fn] def regex: String =
      (if (caseInsensitive) "(?im)^" else "(?m)^") + Regex.quote(label) + ":[ \\t]*(.*)$"
    protected def value(m: Matcher, text: String): String = {
      if (!continuation) return m.group(1)
      // Skip the newline that closed the matched line, then fold each
      // following '\n'-separated line that starts with a tab or 4 spaces.
      var next = m.end(1)
      if (text.startsWith("\r", next)) next += 1
      if (text.startsWith("\n", next)) next += 1
      val sb = new StringBuilder(m.group(1))
      while (next >= 0 && (text.startsWith("\t", next) || text.startsWith("    ", next))) {
        val nl = text.indexOf('\n', next)
        sb.append(" ").append(text.substring(next, if (nl < 0) text.length else nl).trim)
        next = if (nl < 0) -1 else nl + 1
      }
      sb.toString
    }
    def describe: String = s"keycolon('$label', ci=$caseInsensitive, cont=$continuation)"
  }

  /** Regex with one capture group (or the whole match when there is none) —
    * what prompt P_A (regex-flavored) tends to produce. P_A's key-colon and
    * row regexes read the scan's indexes, as `KeyColon` and `TagRow` do.
    */
  final case class RegexCapture(pattern: String) extends RegexKind {
    private[fn] def regex: String                         = pattern
    protected def value(m: Matcher, text: String): String = if (m.groupCount >= 1) m.group(1) else m.group()
    def describe: String                                  = s"regex($pattern)"
  }

  /** Substring between two literal anchors — synthesized from inline-prose
    * renderings ("the submission number K123456 was assigned"). The match
    * starts at the first `start`.
    */
  final case class Between(start: String, end: String) extends Extractor {
    private[fn] def run(scan: ExtractorSet.Scan): Hit = {
      val text = scan.text
      val i    = text.indexOf(start)
      if (i < 0) return Miss
      val from = i + start.length
      val j    = text.indexOf(end, from)
      if (j < 0) Miss else Hit(text.substring(from, j), i)
    }
    def describe: String = s"between('$start','$end')"
  }

  /** HTML label/value row (`<tr><th>Label</th><td>value</td></tr>` and
    * infobox variants): the regex
    * `(?s)>\s*label\s*</[a-z0-9]+>\s*<td[^>]*>(.*?)</td>` (`(?is)` when
    * case-insensitive, `valueTag` for `td`). `stripMarkup=false` reproduces
    * the common LLM bug of returning raw inner HTML.
    */
  final case class TagRow(label: String, caseInsensitive: Boolean,
                          stripMarkup: Boolean, valueTag: String = "td") extends RegexKind {
    private[fn] def regex: String = {
      val vt = Regex.quote(valueTag)
      (if (caseInsensitive) "(?is)" else "(?s)") + ">\\s*" + Regex.quote(label) +
        "\\s*</[a-z0-9]+>\\s*<" + vt + "[^>]*>(.*?)</" + vt + ">"
    }
    protected def value(m: Matcher, text: String): String = if (stripMarkup) stripTags(m.group(1)) else m.group(1)
    def describe: String = s"tagrow('$label', ci=$caseInsensitive, strip=$stripMarkup, tag=$valueTag)"
  }

  /** `<meta itemprop|name|property="prop" content="value">` extractor, tried
    * at each `<meta` (ASCII case folded).
    */
  final case class MetaContent(prop: String) extends RegexKind {
    private[fn] def regex: String =
      "(?i)<meta[^>]*(?:itemprop|name|property)=\"" + Regex.quote(prop) + "\"[^>]*content=\"([^\"]*)\""
    protected def value(m: Matcher, text: String): String = m.group(1)
    def describe: String                                  = s"meta('$prop')"
  }

  /** `<title>value SEP site</title>` extractor, tried at each `<title>`
    * (ASCII case folded).
    */
  final case class TitleBefore(sep: String) extends RegexKind {
    private[fn] def regex: String = "(?is)<title>(.*?)</title>"
    protected def value(m: Matcher, text: String): String = {
      val t = m.group(1)
      val i = t.indexOf(sep)
      if (i < 0) t else t.substring(0, i)
    }
    def describe: String = s"titleBefore('$sep')"
  }

  /** `<a href="/prefix/...">value</a>` extractor — attributes encoded in
    * link targets, which DOM-leaf baselines ignore (the SWDE-Plus point).
    * Tried at each `<a href="prefix` (ASCII case folded).
    */
  final case class HrefAnchor(prefix: String) extends RegexKind {
    private[fn] def regex: String =
      "(?i)<a href=\"" + Regex.quote(prefix) + "[^\"]*\"[^>]*>(.*?)</a>"
    protected def value(m: Matcher, text: String): String = stripTags(m.group(1))
    def describe: String                                  = s"href('$prefix')"
  }

  /** Wraps a working extractor with the paper's "sloppy" failure mode:
    * the function matches the right region but mis-captures the value.
    * It reads `inner`'s output, and its start, from the scan, so an `inner`
    * that is also a member of the set runs once.
    *
    * @param mode 0 = append `extra` after the value; 1 = truncate
    *             to the first token; any other = prepend `extra`.
    */
  final case class Sloppy(inner: Extractor, mode: Int, extra: String) extends Extractor {
    private[fn] def run(scan: ExtractorSet.Scan): Hit = {
      val base = scan.output(inner)
      if (base.value.isEmpty) Miss
      else Hit(mode match {
        case 0 => base.value + " " + extra
        case 1 => base.value.split("\\s+").headOption.getOrElse("")
        case _ => extra + " " + base.value
      }, base.start)
    }
    def describe: String = s"sloppy(${inner.describe}, mode=$mode)"
  }
}

/** Functions evaluated together over each document: every distinct function
  * (members and the functions `Sloppy` members wrap) runs once per document,
  * and every regex kind whose [[FirstMatch]] plan is a key-colon or row key
  * reads its match starts from one shared scan of the text, built on first
  * use:
  *  - a line index: one pass over the line starts finds, for each line key,
  *    the first line that opens with `key:` (exactly, or under ASCII case
  *    folding), and stops once every key has its line;
  *  - a row index: one pass over the `>` positions keys each by the text
  *    between it and the next `<`, less surrounding regex whitespace, and
  *    keeps the sites of each row key in document order.
  *
  * Each output carries the start of its match ([[ExtractorSet.Hit]]), which
  * is where `DocParser` locates a field.
  *
  * Serializable, so one set ships in a Spark task's closure.
  */
final class ExtractorSet(fns: Seq[Extractor]) extends Serializable {
  import Extractor._
  import FirstMatch.{LineKey, RowKey}

  private val members = fns.toIndexedSeq
  // The plans that read the scan's indexes (the others, which hold literal
  // matchers, stay with their functions).
  private val plans: Seq[FirstMatch.Plan] = {
    def withInner(f: Extractor): Seq[Extractor] = f match {
      case s: Sloppy => s +: withInner(s.inner)
      case _         => Seq(f)
    }
    members.flatMap(withInner).distinct.collect { case r: RegexKind => r.firstMatch.plan }
      .filter(p => p.isInstanceOf[LineKey] || p.isInstanceOf[RowKey])
  }
  private val lineKeys: Set[String]       = plans.collect { case LineKey(k, false) => k }.toSet
  private val foldedLineKeys: Set[String] = plans.collect { case LineKey(k, true) => k }.toSet
  private val maxLineKeyLength: Int       = (lineKeys ++ foldedLineKeys).map(_.length).maxOption.getOrElse(-1)
  private val rowKeys: Set[String]        = plans.collect { case RowKey(k) => k }.toSet
  private val maxRowKeyLength: Int        = rowKeys.map(_.length).maxOption.getOrElse(-1)

  /** One document's scan; a null `text` reads as "". */
  private[fn] def scan(text: String): ExtractorSet.Scan = new ExtractorSet.Scan(if (text == null) "" else text, this)

  /** Each member's output on `text`, in member order, with the start of the
    * match it came from: the value trimmed, [[ExtractorSet.Miss]] on a miss,
    * on any failure and for a null `text`.
    */
  def hits(text: String): IndexedSeq[ExtractorSet.Hit] = {
    val s = scan(text)
    members.map(s.output)
  }

  /** The values of [[hits]]: "" where a member found nothing. */
  def extract(text: String): IndexedSeq[String] = hits(text).map(_.value)
}

object ExtractorSet {
  import Extractor._

  /** A function's value on one document and where its match starts: a
    * regex kind's match start (a `KeyColon`'s line, a `TagRow`'s `>`), a
    * `Between`'s first anchor, a `Sloppy`'s inner start.
    */
  final case class Hit(value: String, start: Int)

  /** No value: a miss, a broken function or a failure. */
  val Miss: Hit = Hit("", -1)

  /** One document's scan: the memoised output of every function the set
    * reaches, and the line and row indexes, each built on first use.
    */
  private[fn] final class Scan(val text: String, set: ExtractorSet) {
    private val outputs = new java.util.HashMap[Extractor, Hit]()

    /** `f`'s output on this document, computed once. */
    private[fn] def output(f: Extractor): Hit = {
      val hit = outputs.get(f)
      if (hit != null) return hit
      val out =
        try {
          val raw = f.run(this)
          Hit(if (raw.value == null) "" else raw.value.trim, raw.start)
        } catch { case NonFatal(_) => Miss }
      outputs.put(f, out)
      out
    }

    /** The start of the first line opening with `key:`, or -1; `key` is
      * lower-cased when `fold`. Only the set's line keys are indexed.
      */
    private[fn] def keyLine(key: String, fold: Boolean): Int =
      (if (fold) keyLines._2 else keyLines._1).getOrElse(key, -1)

    /** Line starts are where `(?m)^` matches: the text's start and after
      * every line terminator, but not between `\r` and `\n` nor at the end.
      * At each, every `:` within the longest key's reach closes a possible
      * key; a key may itself hold `:` or a line terminator.
      */
    private lazy val keyLines: (mutable.HashMap[String, Int], mutable.HashMap[String, Int]) = {
      val exact, folded = mutable.HashMap.empty[String, Int]
      val wanted        = set.lineKeys.size + set.foldedLineKeys.size
      val n             = text.length
      var line          = 0
      while (line < n && exact.size + folded.size < wanted) {
        var colon = line
        val last  = math.min(n - 1, line + set.maxLineKeyLength)
        while (colon <= last) {
          if (text.charAt(colon) == ':') {
            val key = text.substring(line, colon)
            if (set.lineKeys(key) && !exact.contains(key)) exact(key) = line
            if (set.foldedLineKeys.nonEmpty) {
              val low = asciiLower(key)
              if (set.foldedLineKeys(low) && !folded.contains(low)) folded(low) = line
            }
          }
          colon += 1
        }
        line = lineEnd(line) + 1
      }
      (exact, folded)
    }

    // Whether '\n' is the text's only line terminator, so a line ends at the
    // next '\n' (found by `indexOf`, not char by char).
    private lazy val lfOnly: Boolean = "\r\u0085\u2028\u2029".forall(text.indexOf(_) < 0)

    /** The end of the line from `line`: its terminator (`\r\n` ends at the
      * `\n`), or the text's end.
      */
    private def lineEnd(line: Int): Int = {
      val n = text.length
      if (lfOnly) {
        val lf = text.indexOf('\n', line)
        if (lf < 0) n else lf
      } else {
        var end = line
        while (end < n && !(isLineEnd(text.charAt(end)) &&
                 !(text.charAt(end) == '\r' && end + 1 < n && text.charAt(end + 1) == '\n')))
          end += 1
        end
      }
    }

    /** The `>` positions whose row key, lower-cased, is `key`, in document
      * order. Only the set's row keys are indexed.
      */
    private[fn] def rowSites(key: String): Iterator[Int] = rows.getOrElse(key, Nil).iterator

    private lazy val rows: mutable.HashMap[String, mutable.ArrayBuffer[Int]] = {
      val index = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
      val n     = text.length
      var lt, keyEnd = -1 // the next '<', and the end of the text before it less trailing spaces
      var gt         = text.indexOf('>')
      while (gt >= 0) {
        var from = gt + 1
        while (from < n && isSpace(text.charAt(from))) from += 1
        if (lt < from) {
          lt = text.indexOf('<', from)
          keyEnd = lt
          while (keyEnd > from && isSpace(text.charAt(keyEnd - 1))) keyEnd -= 1
        }
        if (lt < 0) gt = -1 // no '<' left, so no "</" for a key to precede
        else {
          val end = math.max(from, keyEnd)
          if (end - from <= set.maxRowKeyLength) {
            val key = asciiLower(text.substring(from, end))
            if (set.rowKeys(key)) index.getOrElseUpdate(key, mutable.ArrayBuffer.empty[Int]) += gt
          }
          gt = text.indexOf('>', gt + 1)
        }
      }
      index
    }
  }
}
