package repro.fn

import java.util.regex.{Matcher, Pattern}
import scala.collection.mutable
import Extractor.{asciiLower, isSpace}

/** A regex compiled once, with the places its matches can start worked out
  * from its own syntax when it is compiled (a required-literal prefilter, as
  * in RE2; Cox, "Regular Expression Matching in the Wild", 2010).
  *
  * [[in]] tries the pattern with `lookingAt`, under transparent and
  * non-anchoring bounds, only at those candidate starts and in document
  * order, so the first confirmed start is the leftmost match `find` reports,
  * with the same groups. A literal is a run of `\Q…\E` blocks and escaped or
  * plain literal characters; the candidate starts are:
  *  - the key-colon form `(?m)^L:[ \t]*(.*)$`, which matches at every line
  *    start that opens with `L:`: the first such line, from the scan's line
  *    index ([[LineKey]]);
  *  - the row form `>\s*L\s*<…`, for an L without `<` and with no `\s` at
  *    either end: the `>` sites the scan's row index keys by L ([[RowKey]]);
  *  - any other pattern that opens with a literal L: every occurrence of L;
  *  - otherwise, when the pattern holds a literal every match contains, a text
  *    without it misses at once and any other text runs a plain `find`.
  *
  * A pattern with a flag other than `i`, `s` and `m`, a top-level `|`, or a
  * construct the small parser below does not read always runs a plain
  * `find`. Under `(?i)` a literal matches with ASCII case folding, as
  * `java.util.regex` does without UNICODE_CASE. An invalid pattern gets a
  * plan but throws from [[in]].
  */
final class FirstMatch(regex: String) {
  import FirstMatch._

  private lazy val pattern = Pattern.compile(regex)
  private[fn] val plan     = FirstMatch.plan(regex)

  /** The leftmost match in the scan's text, or None; the scan's set must
    * hold a function with this pattern, so that its indexes hold its key.
    */
  private[fn] def in(scan: ExtractorSet.Scan): Option[Matcher] = {
    val text = scan.text
    plan match {
      case Find             => find(text)
      case Contains(l)      => if (l.indexIn(text, 0) >= 0) find(text) else None
      case At(l) =>
        confirm(text, Iterator.iterate(l.indexIn(text, 0))(i => l.indexIn(text, i + 1)).takeWhile(_ >= 0))
      case LineKey(k, fold) => confirm(text, Iterator(scan.keyLine(k, fold)).filter(_ >= 0))
      case RowKey(k)        => confirm(text, scan.rowSites(k))
    }
  }

  private def find(text: String): Option[Matcher] = {
    val m = pattern.matcher(text)
    if (m.find()) Some(m) else None
  }

  /** Tries the pattern at each start, in order; a text with no start builds
    * no matcher.
    */
  private def confirm(text: String, starts: Iterator[Int]): Option[Matcher] = {
    if (!starts.hasNext) return None
    val m = pattern.matcher(text).useTransparentBounds(true).useAnchoringBounds(false)
    while (starts.hasNext) {
      m.region(starts.next(), text.length)
      if (m.lookingAt()) return Some(m)
    }
    None
  }
}

object FirstMatch {

  /** Where a pattern's matches can start. */
  private[fn] sealed trait Plan
  private[fn] case object Find                    extends Plan
  private[fn] final case class Contains(lit: Lit) extends Plan
  private[fn] final case class At(lit: Lit)       extends Plan
  /** The first line opening with `key:`; under `fold`, `key` is lower-cased
    * and the line compared with ASCII case folding.
    */
  private[fn] final case class LineKey(key: String, fold: Boolean) extends Plan
  /** The `>` sites whose row key, lower-cased, is `key`. */
  private[fn] final case class RowKey(key: String) extends Plan

  /** A non-empty literal; `fold` matches it under ASCII case folding. */
  private[fn] final class Lit(s: String, fold: Boolean) {
    private val low = asciiLower(s)
    def length: Int = s.length
    override def toString: String = if (fold) s"(?i)$s" else s

    /** Whether the literal occurs at `i`. */
    private def at(text: String, i: Int): Boolean =
      if (!fold) text.startsWith(s, i)
      else i >= 0 && i + low.length <= text.length && {
        var k = 0
        while (k < low.length && asciiLower(text.charAt(i + k)) == low.charAt(k)) k += 1
        k == low.length
      }

    // Under folding the search looks for the longest run of characters that
    // folding leaves alone, then checks the literal around it.
    private val (anchor, anchorAt) = {
      val runs = "[^a-zA-Z]+".r.findAllMatchIn(low).map(r => (r.matched, r.start)).toSeq
      if (runs.isEmpty) ("", 0) else runs.maxBy(_._1.length)
    }

    /** The first occurrence at or after `from`, or -1. */
    def indexIn(text: String, from: Int): Int =
      if (!fold) text.indexOf(s, from)
      else if (anchor.isEmpty) {
        var i = from
        while (i + low.length <= text.length && !at(text, i)) i += 1
        if (i + low.length <= text.length) i else -1
      } else {
        var j = text.indexOf(anchor, from + anchorAt)
        while (j >= 0 && !at(text, j - anchorAt)) j = text.indexOf(anchor, j + 1)
        if (j < 0) -1 else j - anchorAt
      }
  }

  /** One top-level element of a parsed pattern. */
  private sealed trait Item
  /** A literal character with no quantifier. */
  private final case class Chr(c: Char) extends Item
  /** `^`. */
  private case object Caret extends Item
  /** `\s*`, greedy, lazy or possessive. */
  private case object Spaces extends Item
  /** Any other element: a class, a quantified atom, `$`, `\b`, a group with
    * an alternation.
    */
  private case object Other extends Item

  private final class Unsupported extends Exception(null, null, false, false)

  /** The plan for `regex`; one for a pattern `Pattern.compile` rejects is
    * never run.
    */
  private def plan(regex: String): Plan =
    try {
      val (flags, body) =
        if (regex.startsWith("(?") && regex.indexOf(')') > 2 &&
            regex.substring(2, regex.indexOf(')')).forall(c => c.isLetter || c == '-')) {
          val f = regex.substring(2, regex.indexOf(')'))
          if (!f.forall("ism".contains(_))) throw new Unsupported
          (f, regex.substring(regex.indexOf(')') + 1))
        } else ("", regex)
      if (body.exists(Character.isSurrogate)) throw new Unsupported
      val p     = new Parser(body)
      val items = p.sequence()
      if (p.alternation || p.pos < body.length) throw new Unsupported
      choose(body, items, flags.contains('i'), flags.contains('m'))
    } catch { case _: Unsupported => Find }

  private val KeyColonTail = ":[ \\t]*(.*)$"

  private def choose(body: String, items: Vector[Item], fold: Boolean, multiline: Boolean): Plan = {
    // The literal that opens items(from..), "" when there is none.
    def run(from: Int): String =
      items.drop(from).takeWhile(_.isInstanceOf[Chr]).collect { case Chr(c) => c }.mkString
    def lit(s: String): Lit = new Lit(s, fold)
    val first = run(0)
    val line  = run(1)  // after `^`: the key and its `:`
    val label = run(2)  // after `>\s*`: the row key
    // The key-colon form: `^`, a literal ending in the tail's `:`, and the
    // tail's three other items, so the tail is not part of the literal.
    if (multiline && items.headOption.contains(Caret) && body.endsWith(KeyColonTail) &&
        line.endsWith(":") && items.length == line.length + 4 && items.drop(line.length + 1).forall(_ == Other))
      LineKey(if (fold) asciiLower(line.init) else line.init, fold)
    else if (first == ">" && items.lift(1).contains(Spaces) && items.lift(label.length + 2).contains(Spaces) &&
             items.lift(label.length + 3).contains(Chr('<')) && label.indexOf('<') < 0 &&
             (label.isEmpty || !isSpace(label.head) && !isSpace(label.last)))
      RowKey(asciiLower(label))
    else if (first.nonEmpty) At(lit(first))
    else items.indices.map(run).filter(_.nonEmpty).maxByOption(_.length).fold[Plan](Find)(l => Contains(lit(l)))
  }

  /** Reads the subset of `java.util.regex` syntax the synthesizer emits:
    * literals, `\Q…\E`, escapes, `.`, `^`, `$`, classes, groups `(…)` and
    * `(?:…)`, and quantifiers. A group without an alternation is spliced into
    * its sequence; anything else throws [[Unsupported]].
    */
  private final class Parser(s: String) {
    var pos                  = 0
    var alternation: Boolean = false

    private def peek: Char = if (pos < s.length) s.charAt(pos) else '\u0000'

    /** Items up to the end or an unmatched `)`; records a `|` at this level. */
    def sequence(): Vector[Item] = {
      val out = mutable.ArrayBuffer.empty[Item]
      while (pos < s.length && peek != ')') {
        if (peek == '|') { alternation = true; pos += 1 }
        else out ++= atom()
      }
      out.toVector
    }

    /** Skips a quantifier if one follows; true when there was one. */
    private def quantifier(): Boolean = {
      val q = peek match {
        case '*' | '+' | '?' => pos += 1; true
        case '{' =>
          val close = s.indexOf('}', pos)
          if (close < 0 || !s.substring(pos + 1, close).matches("\\d+(,\\d*)?")) throw new Unsupported
          pos = close + 1; true
        case _ => false
      }
      if (q && (peek == '?' || peek == '+')) pos += 1
      q
    }

    private def atom(): Seq[Item] = {
      val c = peek
      pos += 1
      c match {
        case '(' =>
          if (peek == '?') {
            if (s.startsWith("?:", pos)) pos += 2 else throw new Unsupported
          }
          val inner = new Parser(s)
          inner.pos = pos
          val items = inner.sequence()
          if (inner.peek != ')') throw new Unsupported
          pos = inner.pos + 1
          if (quantifier() || inner.alternation) Seq(Other) else items
        case '[' =>
          skipClass()
          quantifier()
          Seq(Other)
        case '\\' =>
          val e = peek
          pos += 1
          e match {
            case 'Q' =>
              val end  = s.indexOf("\\E", pos)
              val text = if (end < 0) s.substring(pos) else s.substring(pos, end)
              pos = if (end < 0) s.length else end + 2
              if (text.isEmpty) Nil
              else if (quantifier()) text.init.map(Chr) :+ Other
              else text.map(Chr)
            case 's' => if (peek == '*') { quantifier(); Seq(Spaces) } else { quantifier(); Seq(Other) }
            case 'd' | 'D' | 'S' | 'w' | 'W' | 'b' | 'B' => quantifier(); Seq(Other)
            case _ if e < 128 && !e.isLetterOrDigit => if (quantifier()) Seq(Other) else Seq(Chr(e))
            case _ => throw new Unsupported
          }
        case '^' => if (quantifier()) throw new Unsupported else Seq(Caret)
        case '$' | '.' => quantifier(); Seq(Other)
        case '*' | '+' | '?' | '{' => throw new Unsupported
        case _ => if (quantifier()) Seq(Other) else Seq(Chr(c))
      }
    }

    /** Skips a character class, nested classes included; `pos` is past `[`. */
    private def skipClass(): Unit = {
      if (peek == '^') pos += 1
      if (peek == ']') throw new Unsupported
      var depth = 1
      while (depth > 0) {
        if (pos >= s.length) throw new Unsupported
        s.charAt(pos) match {
          case '\\' =>
            if (s.startsWith("\\Q", pos)) throw new Unsupported
            pos += 2
          case '[' => depth += 1; pos += 1
          case ']' => depth -= 1; pos += 1
          case _   => pos += 1
        }
      }
    }
  }
}
