package repro.fn

import java.util.regex.MatchResult
import scala.collection.mutable
import scala.util.matching.Regex
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.docs.{Corpora, DocGen, Style}
import repro.fn.Extractor._
import repro.fn.FirstMatch._

/** [[FirstMatch]] against `findFirstMatchIn`, which tries every start: the
  * same start, end and groups, or no match on both sides. A candidate start
  * the prefilter misses shows as a later match or as none.
  */
class FirstMatchSpec extends AnyFunSuite {

  private val compiled  = mutable.HashMap.empty[String, (RegexCapture, ExtractorSet)]
  private val reference = mutable.HashMap.empty[String, Regex]

  private def shape(m: MatchResult): (Int, Int, Seq[String]) = (m.start, m.end, (0 to m.groupCount).map(m.group))

  private def shown(text: String): String =
    text.take(300).flatMap(c => if (c < ' ' || c > '~') f"\\u${c.toInt}%04x" else c.toString)

  /** Asserts that both find the same leftmost match; true when there is one. */
  private def check(pattern: String, text: String): Boolean = {
    val expected = reference.getOrElseUpdate(pattern, new Regex(pattern)).findFirstMatchIn(text)
      .map(m => (m.start, m.end, (0 to m.groupCount).map(m.group)))
    val (f, set) = compiled.getOrElseUpdate(pattern, { val f = RegexCapture(pattern); (f, new ExtractorSet(Seq(f))) })
    val actual   = f.firstMatch.in(set.scan(text)).map(shape)
    assert(actual == expected, s"pattern ${shown(pattern)} on ${shown(text)}")
    expected.nonEmpty
  }

  private def plan(pattern: String): Plan = new FirstMatch(pattern).plan

  private val seed = 42L

  test("every regex kind a style builds finds findFirstMatchIn's match on rendered documents of all 16 settings") {
    assert(Corpora.all.size == 16)
    var patterns, matched = 0
    for (setting <- Corpora.all) {
      val docs = DocGen.corpus(setting, 25, seed) ++ (0 until 10).map(i => DocGen.render(setting, 5000L + 7919L * i, 7L))
      val fns = setting.attrs.flatMap { a =>
        val observed = docs.flatMap(_.gold.get(a.name)).distinct.take(3)
        a.variants.flatMap { case (style, _) =>
          observed.map(style.narrowPA) ++ Seq(style.narrowPB, style.general, style.reader)
        }
      }
      val regexes = fns.collect { case r: RegexKind => r.regex }.distinct
      patterns += regexes.size
      for (d <- docs; p <- regexes) if (check(p, d.text)) matched += 1
    }
    assert(patterns > 100 && matched > 1000, s"patterns=$patterns matched=$matched")
  }

  test("the synthesizer's regex forms are prefiltered, not run with a plain find") {
    assert(plan("(?m)^\\QDevice Name\\E:[ \\t]*(.*)$") == LineKey("Device Name", fold = false))
    assert(plan("(?m)^Device\\ Name:[ \\t]*(.*)$") == LineKey("Device Name", fold = false))
    assert(plan("(?s)>\\s*\\QDirector\\E\\s*</th>\\s*<\\Qtd\\E[^>]*>(.*?)</\\Qtd\\E>") == RowKey("director"))
    assert(plan("<meta[^>]*itemprop=\"\\Qgenre\\E\"[^>]*content=\"([^\"]*)\"").isInstanceOf[At])
    assert(plan("(?is)<title>(.*?)\\Q - IMDb\\E").isInstanceOf[At])
    assert(plan("(?i)<a href=\"\\Q/wiki/season/\\E[^\"]*\"[^>]*>([^<]*)</a>").isInstanceOf[At])
    assert(plan("(\\b\\d\\d[A-Z]\\-\\d\\b)").isInstanceOf[Contains])
    for (f <- Seq(MetaContent("name"), TitleBefore(" - "), HrefAnchor("/wiki/college/")))
      assert(plan(f.regex).isInstanceOf[At], f.describe)
  }

  test("every style's KeyColon, TagRow and P_A key-colon and row regexes read the scan's line and row indexes") {
    def planOf(f: Extractor): Plan = f match {
      case r: RegexKind => r.firstMatch.plan
      case other        => fail(s"${other.describe} is not a regex kind")
    }
    var keyColons, rows = 0
    for (setting <- Corpora.all; a <- setting.attrs; (style, _) <- a.variants) style match {
      case s: Style.KeyColonStyle =>
        for (f <- Seq(s.reader, s.narrowPA("v"), s.narrowPB))
          assert(planOf(f) == LineKey(s.label, fold = false), f.describe)
        assert(planOf(s.general) == LineKey(asciiLower(s.label), fold = true), s.general.describe)
        keyColons += 1
      case s: Style.TagRowStyle =>
        for (f <- Seq(s.reader, s.narrowPA("v"), s.narrowPB, s.general))
          assert(planOf(f) == RowKey(asciiLower(s.label)), f.describe)
        rows += 1
      case _ =>
    }
    assert(keyColons > 10 && rows > 10, s"keyColons=$keyColons rows=$rows")
    // Labels a row key cannot hold are tried at every `>`.
    for (l <- Seq("a<b", " Pad", "Pad\t", "<b>"))
      assert(planOf(TagRow(l, caseInsensitive = true, stripMarkup = true)).isInstanceOf[At], l)
  }

  test("a first key line or row site that fails the rest of the pattern: a later one matches") {
    // Only the always-matching key-colon form reads the line index, which
    // keeps just each key's first line; these forms must search on.
    val lineCases = Seq(
      "(?m)^\\QDate\\E:(\\d+)"                -> "Date: x\nDate:5",
      "(?m)^\\QDate\\E:[ \\t]*(\\d+)$"        -> "Date: x\r\nDate: 5",
      "(?m)^\\QDate\\E:[ \\t]*(.+)$"          -> "Date:\nDate: v",
      "(?m)^\\QDate\\E:[ \\t]*(.*)x$"         -> "Date: a\u0085Date: bx",
      "(?im)^\\Qkey\\E:[ \\t]*(\\d)$"         -> "KEY: x\n\u212aey: 1\nkEy: 2",
      "(?m)^\\QDate\\E:[ \\t]*(.*)$\\n(.)"     -> "Date: a\nDate: b\nc")
    for ((p, t) <- lineCases) {
      assert(!plan(p).isInstanceOf[LineKey], p)
      assert(check(p, t), s"$p must match ${shown(t)}")
    }
    // The row form confirms every site of its key, in document order.
    val rowCases = Seq(
      "(?s)>\\s*\\QL\\E\\s*</th>\\s*<td>(\\d+)</td>" -> "<th>L</th><td>x</td><th>L</th><td>5</td>",
      "(?is)>\\s*\\QL\\E\\s*</[a-z0-9]+>\\s*<\\Qtd\\E[^>]*>(.*?)</\\Qtd\\E>" ->
        "<th>L</th><dd>no</dd><TH> l </TH><td>yes</td>",
      "(?s)>\\s*\\QL\\E\\s*</th>\\s*<\\Qtd\\E[^>]*>(.*?)</\\Qtd\\E>" ->
        "<b>L</b><td>no</td>\n<th>\n L\t</th> <td>yes</td>")
    for ((p, t) <- rowCases) {
      assert(plan(p).isInstanceOf[RowKey], p)
      assert(check(p, t), s"$p must match ${shown(t)}")
    }
    // The key-colon form itself after each line terminator, and where only a
    // later line opens with the key.
    val keyColon = Seq("(?m)^\\QDate\\E:[ \\t]*(.*)$", "(?im)^\\Qkey\\E:[ \\t]*(.*)$")
    val texts = Seq("x\r\nDate: crlf", "x\rDate: cr", "x\u0085Date: nel", "x\u2028Date: ls", "x\u2029Date: ps",
      "xDate: no\nDate: yes", "Date", "Da\nte: no", "\u212aey: kelvin\nKEY: ascii", "key:\r\n", "\r\nkey:x")
    var matched = 0
    for (p <- keyColon; t <- texts) {
      assert(plan(p).isInstanceOf[LineKey], p)
      if (check(p, t)) matched += 1
    }
    assert(matched >= 8, s"matched=$matched")
  }

  test("patterns outside the parser's subset fall back to a plain find and stay exact") {
    val fallbacks = Seq(
      "(?x) a b"            -> "xx ab a b",
      "(?u)(?i)k"           -> "\u212a k K",
      "(?-i)ab"             -> "ab",
      "foo|bar"             -> "xxbar foo",
      "(?:foo)|bar"         -> "bar",
      "\\d+"                -> "x12",
      "(?<=a)b"             -> "bab",
      "(a)\\1"              -> "abaa",
      "(?i:K)ey"            -> "key Key",
      "\\tv"                -> "a\tv",
      "x(?=y)"              -> "xzxy",
      "(?m)(?i)^k"          -> "a\nK",
      "[]a]b"               -> "]b")
    for ((p, t) <- fallbacks) {
      assert(plan(p) == Find, p)
      assert(check(p, t), s"$p must match ${shown(t)}")
    }
  }

  test("adversarial texts: the prefilter never misses a candidate start") {
    val cases = Seq(
      // a literal present with no match, then a match
      "(?m)^\\QDate\\E:[ \\t]*(.*)$"       -> "xDate: no\nDate: yes",
      "(?m)^\\QDate\\E:[ \\t]*(.*)$"       -> "Date",
      "<meta[^>]*itemprop=\"\\Qp\\E\"[^>]*content=\"([^\"]*)\"" -> "<meta itemprop=\"q\"><meta itemprop=\"p\" content=\"v\">",
      // overlapping occurrences of the literal
      "aa(\\d)"                             -> "aaa1",
      "(?i)aA(\\d)"                         -> "AaA1",
      ">\\s*\\Qxx\\E(\\d)"                  -> "> xxx1 >xx1",
      "abab\\d"                             -> "ababab1",
      // the literal at the end of the text
      "(?is)<title>(.*?)</title>"           -> "x <title>",
      "\\Qend\\E"                           -> "the end",
      ">\\s*\\QL\\E"                        -> "> \t L",
      // line starts after \r\n, a lone \r and the other terminators
      "(?m)^\\QDate\\E:(.*)"                -> "x\r\nDate: crlf",
      "(?m)^\\QDate\\E:(.*)"                -> "x\rDate: cr",
      "(?m)^\\QDate\\E:(.*)"                -> "x\u0085Date: nel",
      "(?m)^\\QDate\\E:(.*)"                -> "x\u2028Date: ls",
      "(?m)^\\QDate\\E:(.*)"                -> "x\u2029Date: ps",
      "(?m)^\\n(x)"                         -> "a\r\nx\n\nx",
      "^\\QDate\\E:(.*)"                    -> "x\nDate: not at the start",
      "^\\QDate\\E:(.*)"                    -> "Date: at the start",
      // ASCII-only case folding: U+212A is not k, U+017F is not s
      "(?i)\\Qkey\\E:(.*)"                  -> "\u212aey: kelvin\nKEY: ascii",
      "(?i)\\Qclass\\E=(\\w+)"              -> "cla\u017f\u017f=long class=short",
      "(?i)<a href=\"\\Q/s/\\E[^\"]*\"[^>]*>(.*?)</a>" -> "<A HREF=\"/\u017f/x\">no</a><a HREF=\"/S/y\">yes</A>",
      "(?i)\\Q\u00e9t\u00e9\\E"             -> "\u00c9T\u00c9 \u00e9T\u00e9",
      // \u000B and \f inside \s runs; U+00A0 is not \s
      ">\\s*\\QLabel\\E\\s*</th>(.*)"       -> ">\u00a0Label</th>no >\u000b\f Label\f</th>yes",
      ">\\s*\\QLabel\\E"                    -> ">\r\n\u000bLabel",
      // a required literal in the middle
      "(\\b\\d\\d[A-Z]\\-\\d\\b)"           -> "12A-3 and 45B-6",
      "(\\b\\d\\d[A-Z]\\-\\d\\b)"           -> "no dash 12A3",
      "[a-z]+\\Q@x\\E"                      -> "me@y you@x",
      "[a-z]*\\Q@x\\E"                      -> "@x")
    var matched = 0
    for ((p, t) <- cases) if (check(p, t)) matched += 1
    assert(matched >= 20, s"matched=$matched")
  }

  test("empty and null text: every kind gives \"\" and FirstMatch agrees with find") {
    val patterns = Seq("(?m)^\\QA\\E:(.*)$", ">\\s*\\QL\\E", "<x", "(\\d)\\Q-\\E", "\\d*", "", "^", "(?m)^")
    for (p <- patterns) check(p, "")
    val kinds = Seq(RegexCapture("(a*)"), RegexCapture("x?"), RegexCapture("(?m)^\\QA\\E:(.*)$"),
      MetaContent("p"), TitleBefore("-"), HrefAnchor("/x/"))
    for (text <- Seq(null, "")) assert(kinds.map(_.extract(text)) == kinds.map(_ => ""), s"text = $text")
  }

  test("property: random patterns in and around the parser's subset agree with find on random texts") {
    val lits   = Seq("a", "b", "k", "K", "s", "<", ">", ":", " ", "\\.", "\\Qab\\E", "\\Q<a\\E", "\\Q.*\\E",
      "\u00e9", "\u212a", "\\Qk\\E", "-")
    val others = Seq("\\s*", "\\s*?", "\\s+", "\\s", ".", ".*?", ".*", "[^>]*", "[ab]", "\\d", "\\b", "$", "a?",
      "b*", "k+", "a{1,2}", "\\Qab\\E?", "\\S")
    def piece(depth: Int): Gen[String] = Gen.frequency(
      6 -> Gen.oneOf(lits),
      3 -> Gen.oneOf(others),
      1 -> (if (depth >= 2) Gen.oneOf(lits) else for {
        n <- Gen.choose(1, 3); ps <- Gen.listOfN(n, piece(depth + 1)); open <- Gen.oneOf("(", "(?:")
        alt <- Gen.oneOf("", "", "|b"); q <- Gen.oneOf("", "", "?", "*")
      } yield open + ps.mkString + alt + ")" + q))
    val body: Gen[String] = Gen.choose(1, 5).flatMap(Gen.listOfN(_, piece(0))).map(_.mkString)
    val pattern: Gen[String] = for {
      flags <- Gen.oneOf("", "", "(?i)", "(?m)", "(?s)", "(?im)", "(?is)", "(?x)", "(?u)")
      form  <- Gen.frequency(
        3 -> body,
        2 -> (for (b <- body) yield "^" + b),
        2 -> (for (l1 <- Gen.oneOf(lits); l2 <- Gen.oneOf(lits); b <- body) yield l1 + "\\s*" + l2 + b),
        1 -> (for (a <- body; b <- body) yield a + "|" + b))
    } yield flags + form
    val chars = Seq("a", "b", "k", "K", "\u212a", "s", "S", "\u017f", "<", ">", ":", " ", "\t", "\n", "\r",
      "\r\n", "\u000b", "\f", "\u0085", "\u2028", "\u2029", "\u00a0", ".", "\u00e9", "\u00c9", "ab", "<a", "AB",
      "1", "-", "*")
    val text: Gen[String] = Gen.choose(0, 30).flatMap(Gen.listOfN(_, Gen.oneOf(chars))).map(_.mkString)

    var tried, matched, prefiltered = 0
    for (i <- 0 until 3000) {
      val p = pattern.apply(Gen.Parameters.default, Seed(i.toLong)).get
      if (scala.util.Try(java.util.regex.Pattern.compile(p)).isSuccess) {
        if (plan(p) != Find) prefiltered += 1
        for (j <- 0 until 15) {
          tried += 1
          if (check(p, text.apply(Gen.Parameters.default, Seed(100000L * i + j)).get)) matched += 1
        }
      }
    }
    assert(prefiltered > 1000 && matched > 5000, s"tried=$tried matched=$matched prefiltered=$prefiltered")
  }
}
