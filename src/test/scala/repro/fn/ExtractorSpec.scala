package repro.fn

import org.scalatest.funsuite.AnyFunSuite
import repro.docs.{Corpora, DocGen}
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
  }

  private val seed     = 42L
  private val settings = Seq(Corpora.fda, Corpora.byName("swde-movie-imdb"))

  test("distinctSlots runs each distinct function once and fans its output out to every slot") {
    val fda = KeyColon("510(k) Number", caseInsensitive = false, continuation = false)
    val fns: Seq[Extractor] = Seq(
      Sloppy(fda, 0, "g"), Broken("generation error"), fda, TagRow("Director", true, true),
      Sloppy(fda, 0, "g"), TitleBefore(" - IMDb"), Broken("generation error"), fda,
      TagRow("Director", true, true), Broken("other"))
    val (distinct, slots) = distinctSlots(fns)
    assert(distinct.size == fns.distinct.size && distinct.size == 6)
    assert(slots.size == fns.size)

    var nonEmpty = 0
    for (setting <- settings; d <- DocGen.corpus(setting, 10, seed)) {
      val plain = fns.map(_.extract(d.text))
      val outs  = distinct.map(_.extract(d.text))
      assert(slots.map(outs) == plain, s"${setting.name} ${d.id}")
      nonEmpty += plain.count(_.nonEmpty)
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
        val (distinct, slots) = distinctSlots(cands)
        val outs       = distinct.map(c => sample.map(d => c.extract(d.text)))
        val dedup      = slots.map(outs)
        assert(dedup == plain)
        for (mode <- modes)
          assert(Aggregation.selectFunctions(dedup, labels, e, mode) ==
            Aggregation.selectFunctions(plain, labels, e, mode), s"${setting.name} ${spec.name} $mode")
        candidates += cands.size
        distinctCandidates += distinct.size
      }
    }
    assert(distinctCandidates < candidates, "the synthesized pools must hold duplicates")
  }
}
