package repro.fn

import scala.collection.mutable
import scala.util.control.NonFatal
import scala.util.matching.Regex
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.EvaporateCode
import repro.docs.{Corpora, DocGen}
import repro.docs.Style.{KeyColonStyle, TagRowStyle}
import repro.fn.Extractor._
import repro.llm.{Profile, SimLM}
import repro.ws.Aggregation

class ExtractorSpec extends AnyFunSuite {

  test("Broken never throws through extract and returns empty") {
    assert(Broken("boom").extract("any text") == "")
  }

  test("KeyColon extracts a simple line") {
    val t = "Header: value here\nOther: nope"
    assert(KeyColon("Header", caseInsensitive = false, continuation = false).extract(t) == "value here")
  }

  test("KeyColon is anchored at line start") {
    val t = "not Header: wrong\nHeader: right"
    assert(KeyColon("Header", false, false).extract(t) == "right")
  }

  test("KeyColon case sensitivity") {
    val t = "HEADER: shouting"
    assert(KeyColon("Header", caseInsensitive = false, continuation = false).extract(t) == "")
    assert(KeyColon("Header", caseInsensitive = true, continuation = false).extract(t) == "shouting")
  }

  test("KeyColon continuation folds indented lines") {
    val t = "To: a@x.com,\n\tb@x.com\nSubject: hi"
    assert(KeyColon("To", false, continuation = true).extract(t) == "a@x.com, b@x.com")
    assert(KeyColon("To", false, continuation = false).extract(t) == "a@x.com,")
  }

  test("KeyColon continuation also folds 4-space indentation") {
    val t = "To: a@x.com,\n    b@x.com\nDone: y"
    assert(KeyColon("To", false, true).extract(t) == "a@x.com, b@x.com")
  }

  test("KeyColon missing label is empty") {
    assert(KeyColon("Nope", true, true).extract("Header: x") == "")
  }

  test("KeyColon quotes regex metacharacters in labels") {
    val t = "510(k) Number: K123456"
    assert(KeyColon("510(k) Number", false, false).extract(t) == "K123456")
  }

  test("RegexCapture returns the first capture group") {
    assert(RegexCapture("v=(\\d+)").extract("a v=42 b") == "42")
  }

  test("RegexCapture without groups returns the whole match") {
    assert(RegexCapture("K\\d{6}").extract("code K123456 ok") == "K123456")
  }

  test("RegexCapture with an invalid pattern is safe") {
    assert(RegexCapture("(unclosed").extract("anything") == "")
  }

  test("RegexCapture no match is empty") {
    assert(RegexCapture("(zzz)").extract("abc") == "")
  }

  test("Between extracts inner text") {
    assert(Between("start ", " end").extract("x start middle end y") == "middle")
  }

  test("Between missing anchors is empty") {
    assert(Between("nope", "end").extract("text") == "")
    assert(Between("te", "nope").extract("text") == "")
  }

  test("TagRow extracts a plain td row") {
    val t = """<tr><th scope="row">Director</th><td class="v">Jane Doe</td></tr>"""
    assert(TagRow("Director", false, stripMarkup = true).extract(t) == "Jane Doe")
  }

  test("TagRow with nested markup strips tags when asked") {
    val t = """<tr><th>Born</th><td><span class="b">June 29, 1988</span> (age 34)<br/><a href="/w">Washington, D.C.</a></td></tr>"""
    assert(TagRow("Born", false, stripMarkup = true).extract(t) == "June 29, 1988 (age 34) Washington, D.C.")
  }

  test("TagRow without stripping returns raw inner HTML (the sloppy P_A mode)") {
    val t = """<tr><th>Born</th><td><span>X</span> Y</td></tr>"""
    assert(TagRow("Born", false, stripMarkup = false).extract(t) == "<span>X</span> Y")
  }

  test("TagRow respects the value tag") {
    val t = """<tr><th>Phone</th><dd>555</dd></tr>"""
    assert(TagRow("Phone", false, true, valueTag = "dd").extract(t) == "555")
    assert(TagRow("Phone", false, true, valueTag = "td").extract(t) == "")
  }

  test("TagRow case-insensitive label matching") {
    val t = """<tr><th>GENRE</th><td>Drama</td></tr>"""
    assert(TagRow("Genre", caseInsensitive = true, stripMarkup = true).extract(t) == "Drama")
    assert(TagRow("Genre", caseInsensitive = false, stripMarkup = true).extract(t) == "")
  }

  test("MetaContent reads itemprop metas") {
    val t = """<meta itemprop="datePublished" content="2023-01-26"/>"""
    assert(MetaContent("datePublished").extract(t) == "2023-01-26")
  }

  test("MetaContent reads name= metas too") {
    val t = """<meta name="author" content="X Y"/>"""
    assert(MetaContent("author").extract(t) == "X Y")
  }

  test("TitleBefore splits on the separator") {
    val t = "<title>The Silent Harbor - IMDb</title>"
    assert(TitleBefore(" - IMDb").extract(t) == "The Silent Harbor")
  }

  test("TitleBefore without separator returns the whole title") {
    assert(TitleBefore(" | X").extract("<title>Just This</title>") == "Just This")
  }

  test("HrefAnchor extracts anchor text by href prefix") {
    val t = """<a href="/year/2012">2012</a>"""
    assert(HrefAnchor("/year/").extract(t) == "2012")
    assert(HrefAnchor("/genre/").extract(t) == "")
  }

  test("Sloppy mode 0 appends trailing garbage") {
    val inner = KeyColon("K", false, false)
    assert(Sloppy(inner, 0, "extra bits").extract("K: v") == "v extra bits")
  }

  test("Sloppy mode 1 truncates to the first token") {
    val inner = KeyColon("K", false, false)
    assert(Sloppy(inner, 1, "x").extract("K: one two three") == "one")
  }

  test("Sloppy propagates inner misses as empty") {
    assert(Sloppy(KeyColon("Nope", false, false), 0, "g").extract("K: v") == "")
  }

  test("extract trims surrounding whitespace") {
    assert(KeyColon("A", false, false).extract("A:    padded   ") == "padded")
  }

  test("stripTags collapses markup and whitespace") {
    assert(stripTags("<b>a</b>   <i>b</i>") == "a b")
    for (s <- Seq("", " x\t\n<br/>y ", "a < b > c", "<a href=\"/g\">Noir</a>\r\n  x", "<<>>", "\u00a0<p>"))
      assert(stripTags(s) == s.replaceAll("<[^>]*>", " ").replaceAll("\\s+", " ").trim, s)
  }

  test("all extractors are Serializable (Spark closure requirement)") {
    val all: Seq[Extractor] = Seq(
      Broken("x"), KeyColon("A", true, true), RegexCapture("(a)"), Between("a", "b"),
      TagRow("L", true, true), MetaContent("p"), TitleBefore("-"), HrefAnchor("/x/"),
      Sloppy(KeyColon("A", false, false), 0, "g"))
    val doc =
      "<title>Page - Site</title>\n<meta itemprop=\"p\" content=\"meta value\"/>\n" +
        "A: alpha\n<tr><th>L</th><td>row value</td></tr>\n<a href=\"/x/1\">anchor</a> b\n"
    // Forces each lazily compiled pattern before serializing, so a forced
    // pattern goes through the round trip too.
    val before = all.map(_.extract(doc))
    assert(before.zip(all).forall { case (out, e) => out.nonEmpty || e.isInstanceOf[Broken] }, before)

    val bytes = new java.io.ByteArrayOutputStream()
    val oos   = new java.io.ObjectOutputStream(bytes)
    all.foreach(e => oos.writeObject(e))
    oos.close()
    val ois    = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
    val copies = all.map(_ => ois.readObject().asInstanceOf[Extractor])
    assert(copies == all)
    assert(copies.map(_.extract(doc)) == before)

    // The lake pass ships the kept functions as one set.
    val setBytes = new java.io.ByteArrayOutputStream()
    val setOut   = new java.io.ObjectOutputStream(setBytes)
    val set      = new ExtractorSet(all)
    assert(set.extract(doc) == before)
    setOut.writeObject(set)
    setOut.close()
    val setCopy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(setBytes.toByteArray))
      .readObject().asInstanceOf[ExtractorSet]
    assert(setCopy.extract(doc) == before)
  }

  private val seed     = 42L
  private val settings = Seq(Corpora.fda, Corpora.byName("swde-movie-imdb"))

  test("ExtractorSet outputs equal each member's extract; equal members agree") {
    val fda = KeyColon("510(k) Number", caseInsensitive = false, continuation = false)
    val fns: Seq[Extractor] = Seq(
      Sloppy(fda, 0, "g"), Broken("generation error"), fda, TagRow("Director", true, true),
      Sloppy(fda, 0, "g"), TitleBefore(" - IMDb"), Broken("generation error"), fda,
      TagRow("Director", true, true), Broken("other"))
    val set = new ExtractorSet(fns)

    var nonEmpty = 0
    for (setting <- settings; d <- DocGen.corpus(setting, 10, seed)) {
      val outs = set.extract(d.text)
      assert(outs == fns.map(_.extract(d.text)), s"${setting.name} ${d.id}")
      for (i <- fns.indices; j <- fns.indices if fns(i) == fns(j)) assert(outs(i) == outs(j))
      nonEmpty += outs.count(_.nonEmpty)
    }
    assert(nonEmpty > 0, "the documents must exercise the functions")
  }

  test("selectFunctions keeps the same candidates and scores from de-duplicated D_eval outputs") {
    val modes = Seq(Aggregation.MajorityVote, Aggregation.WsRaw, Aggregation.WsFilter, Aggregation.WsFull)
    var candidates, distinctCandidates = 0
    for (setting <- settings) {
      val sample = DocGen.corpus(setting, 10, seed)
      val lm     = SimLM(Profile.davinci, setting, seed)
      for (spec <- setting.attrs) {
        val (cands, _) = Synthesizer.candidates(Some(spec), spec.name, sample, 5, Profile.davinci, seed)
        val labels     = sample.map(d => lm.closedExtract(d.id, d.text, spec.name)._1)
        val e          = Aggregation.estimateE(labels)
        val plain      = cands.map(c => sample.map(d => c.extract(d.text)))
        val set        = new ExtractorSet(cands)
        val perDoc     = sample.map(d => set.extract(d.text))
        val dedup      = cands.indices.map(i => perDoc.map(_(i)))
        assert(dedup == plain)
        for (mode <- modes)
          assert(Aggregation.selectFunctions(dedup, labels, e, mode) ==
            Aggregation.selectFunctions(plain, labels, e, mode), s"${setting.name} ${spec.name} $mode")
        candidates += cands.size
        distinctCandidates += cands.distinct.size
      }
    }
    assert(distinctCandidates < candidates, "the synthesized pools must hold duplicates")
  }

  test("null and empty text give \"\" for every kind, alone and in a mixed set") {
    val all: Seq[Extractor] = Seq(
      Broken("x"), KeyColon("A", true, true), KeyColon("", false, false), RegexCapture("(a*)"),
      RegexCapture("x?"), RegexCapture("(unclosed"), Between("", ""), Between("a", "b"),
      TagRow("L", true, true), TagRow("", false, false), TagRow(" <odd> ", true, false),
      MetaContent("p"), TitleBefore("-"), HrefAnchor("/x/"), Sloppy(KeyColon("A", false, false), 0, "g"),
      Sloppy(Between("", ""), 2, "g"))
    for (text <- Seq(null, "")) {
      assert(all.map(_.extract(text)) == all.map(_ => ""), s"text = $text")
      assert(new ExtractorSet(all).extract(text) == all.map(_ => ""), s"text = $text")
    }
  }

  // ------------------------------------------ the shared scan against regexes

  /** `KeyColon` and `TagRow` as the regexes that define them, kept as the
    * reference the shared scan must equal, and `RegexCapture` with a plain
    * `findFirstMatchIn`; every other kind runs as itself.
    */
  private object Reference {
    private val compiled = mutable.HashMap.empty[String, Regex]
    private def regex(p: String): Regex = compiled.getOrElseUpdate(p, new Regex(p))

    private def keyColon(k: KeyColon, text: String): String = {
      val flags = if (k.caseInsensitive) "(?im)" else "(?m)"
      regex(flags + "^" + Regex.quote(k.label) + ":[ \\t]*(.*)$").findFirstMatchIn(text) match {
        case None => ""
        case Some(m) =>
          var value = m.group(1)
          if (k.continuation) {
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
    }

    private def tagRow(t: TagRow, text: String): String = {
      val flags = if (t.caseInsensitive) "(?is)" else "(?s)"
      val vt    = Regex.quote(t.valueTag)
      regex(flags + ">\\s*" + Regex.quote(t.label) + "\\s*</[a-z0-9]+>\\s*<" + vt + "[^>]*>(.*?)</" + vt + ">")
        .findFirstMatchIn(text) match {
        case None    => ""
        case Some(m) => if (t.stripMarkup) stripTags(m.group(1)) else m.group(1).trim
      }
    }

    def extract(f: Extractor, text: String): String = {
      val raw =
        try f match {
          case k: KeyColon => keyColon(k, text)
          case t: TagRow   => tagRow(t, text)
          case RegexCapture(p) =>
            regex(p).findFirstMatchIn(text).fold("")(m => if (m.groupCount >= 1) m.group(1) else m.matched)
          case Sloppy(inner, mode, extra) =>
            val base = extract(inner, text)
            if (base.isEmpty) ""
            else mode match {
              case 0 => base + " " + extra
              case 1 => base.split("\\s+").headOption.getOrElse("")
              case _ => extra + " " + base
            }
          case other => other.extract(text)
        } catch { case NonFatal(_) => "" }
      if (raw == null) "" else raw.trim
    }
  }

  /** Checks `fns` as one set, as a random subset and one by one against the
    * reference on `text`; returns the number of non-empty outputs.
    */
  private def checkAgainstReference(fns: Seq[Extractor], text: String, subsetSeed: Long, clue: => String): Int = {
    val expected = fns.map(Reference.extract(_, text))
    val outs     = new ExtractorSet(fns).extract(text)
    for (i <- fns.indices)
      assert(outs(i) == expected(i), s"$clue: ${fns(i).describe} on ${text.take(400)}")
    val subset = Gen.someOf(fns).apply(Gen.Parameters.default, Seed(subsetSeed)).get.toSeq
    assert(new ExtractorSet(subset).extract(text) == subset.map(Reference.extract(_, text)), clue)
    for (i <- fns.indices by 7) assert(fns(i).extract(text) == expected(i), s"$clue: ${fns(i).describe}")
    expected.count(_.nonEmpty)
  }

  test("property: kept sets equal the regex reference on rendered documents of all 16 settings") {
    assert(Corpora.all.size == 16)
    var nonEmpty = 0
    for ((setting, si) <- Corpora.all.zipWithIndex) {
      val plan = EvaporateCode.plan(setting, Profile.davinci, seed, setting.goldAttrs.size)
      val sets = Seq(Aggregation.MajorityVote, Aggregation.WsFull)
        .map(m => plan.attrs.flatMap(_.keep(m)).distinct)
      val doc = for (idx <- Gen.choose(0L, 1000000L); lakeSeed <- Gen.choose(1L, 1000L))
        yield DocGen.render(setting, idx, lakeSeed)
      for (i <- 0 until 25; fns <- sets) {
        val d = doc.apply(Gen.Parameters.default, Seed(si * 1000L + i)).get
        nonEmpty += checkAgainstReference(fns, d.text, i, s"${setting.name} ${d.id}")
      }
    }
    assert(nonEmpty > 0, "the documents must exercise the kept functions")
  }

  private val labels = Seq("Date", "Date Received", "date", "DATE", "Time: UTC", "Time", "\u00c9mission",
    "\u00e9mission", "key", "Key", "\u212aey", "a<b", "x>y", "<b>", " Pad", "Pad ", "Genre", "GENRE",
    "510(k) Number", "")
  private val lineEnds = Seq("\n", "\r\n", "\r", "\u0085", "\u2028", "\u2029", "\n\n", "")

  /** Every `KeyColon` and `TagRow` over `labels`, P_A's key-colon and row
    * regexes over the same labels, which share their index keys, and some
    * `Sloppy` wrappers.
    */
  private val adversarialFns: Seq[Extractor] = {
    val base = labels.flatMap { l =>
      for (ci <- Seq(false, true); flag <- Seq(false, true); vt <- Seq("td", "dd"))
        yield Seq(KeyColon(l, ci, flag), TagRow(l, ci, flag, vt))
    }.flatten.distinct ++ labels.flatMap { l =>
      Seq(KeyColonStyle(l).narrowPA(""), TagRowStyle(l).narrowPA(""), TagRowStyle(l, valueTag = "dd").narrowPA(""))
    }.distinct
    base ++ base.zipWithIndex.collect { case (f, i) if i % 5 == 0 => Sloppy(f, i % 3, "g") }
  }

  /** Texts that hold each hard case at least once. */
  private val handWritten = Seq(
    "Date: crlf\r\nDate Received: cr\rTime: UTC: colon\u0085key: nel\u2028\u212aey: kelvin\u2029" +
      "\u00c9mission:\tupper\n\u00e9mission: \t lower\nKEY:tab\n",
    "Date Received: first\nDate: second\nDate: repeated\ndate: lower\nDATE: upper\r\n\tfolded\n    also\n",
    "<tr><TH>Genre</TH><TD>Drama</TD></tr><tr><th>GENRE</th><td>Upper</td></tr>",
    "<tr><th>Genre</th><dd>wrong tag</dd></tr><tr><th>Genre</th><td>later <b>match</b></td></tr>",
    "<tr><th>a<b</th><td>lt</td></tr><tr><th> x>y </th><td>gt</td></tr><tr><th><b></th><dd>b</dd></tr>",
    "<tr><th>\n Pad </th><td>pad</td></tr><p>> Date</p> Date: inline\r\n: empty label\n")

  test("property: sets equal the regex reference on adversarial texts") {
    val piece: Gen[String] = Gen.frequency(
      4 -> (for {
        l <- Gen.oneOf(labels); sep <- Gen.oneOf("", " ", "\t", " \t ", "   ")
        v <- Gen.oneOf("v1", "two words", "a:b", "<b>bold</b> tail", "", "  pad  "); e <- Gen.oneOf(lineEnds)
      } yield l + ":" + sep + v + e),
      2 -> (for {
        ind <- Gen.oneOf("\t", "    ", "  "); v <- Gen.oneOf("more", "x y", ""); e <- Gen.oneOf(lineEnds)
      } yield ind + v + e),
      4 -> (for {
        l <- Gen.oneOf(labels); t <- Gen.oneOf("th", "TH", "span", "b1", "x-y")
        vt <- Gen.oneOf("td", "TD", "dd"); close <- Gen.oneOf("td", "TD", "dd")
        ws <- Gen.listOfN(3, Gen.oneOf("", "", " ", "\n ", "\t")); attr <- Gen.oneOf("", " class=\"v\"")
        v  <- Gen.oneOf("Drama", "<a href=\"/g\">Noir</a>  x", "", " y ")
      } yield s"<tr><$t>${ws(0)}$l${ws(1)}</$t>${ws(2)}<$vt$attr>$v</$close></tr>"),
      2 -> Gen.oneOf("<tr>", "</tr>", ">", "<", "</", "not ", "Date", ":", "\t", " ", "\r", "\n"))
    val text = Gen.choose(1, 14).flatMap(Gen.listOfN(_, piece)).map(_.mkString)
    val texts = handWritten ++ (0 until 250).map(i => text.apply(Gen.Parameters.default, Seed(i.toLong)).get)
    var nonEmpty = 0
    for ((t, i) <- texts.zipWithIndex)
      nonEmpty += checkAgainstReference(adversarialFns, t, i, s"text $i")
    assert(nonEmpty > 500, "the texts must exercise the functions")
  }
}
