package repro.docs

import org.scalatest.funsuite.AnyFunSuite
import repro.docs.Style._
import repro.fn.ExtractorSet
import repro.util.Rng

class StyleSpec extends AnyFunSuite {

  private val rng = Rng(7)

  /** `style.reader`'s value and match start on `text`, `None` on a miss. */
  private def read(style: Style, text: String): Option[(String, Int)] = {
    val hit = new ExtractorSet(Seq(style.reader)).hits(text).head
    if (hit.value.isEmpty) None else Some((hit.value, hit.start))
  }

  private def roundtrip(style: Style, value: String): Unit = {
    val doc = "preamble line\n" + style.render(value, rng) + "\ntrailing line"
    val parsed = read(style, doc)
    assert(parsed.isDefined, s"${style.getClass.getSimpleName} failed to read its own rendering")
    assert(parsed.get._1 == value, s"got '${parsed.get._1}' expected '$value'")
    assert(parsed.get._2 > 0)
    assert(parsed == StyleReference.parse(style, doc), "value and match start equal the reference")
  }

  // ------------------------------------------------------------ KeyColon --

  test("KeyColonStyle render/parse roundtrip") {
    roundtrip(KeyColonStyle("Product Code"), "ABC")
  }

  test("KeyColonStyle multiline values fold continuations on parse") {
    val s   = KeyColonStyle("To", multilineValues = true)
    val doc = s.render("a@x.com,\n\tb@x.com", rng) + "\nNext: z"
    assert(read(s, doc) == Some(("a@x.com, b@x.com", 0)))
    assert(read(KeyColonStyle("To"), doc) == Some(("a@x.com,", 0)), "single-line headers do not fold")
  }

  test("KeyColonStyle parse is case sensitive (distinct variants stay distinct)") {
    val lower = KeyColonStyle("Product Code")
    val upper = KeyColonStyle("PRODUCT CODE")
    val doc   = upper.render("XYZ", rng)
    assert(read(lower, doc).isEmpty)
    assert(read(upper, doc).get._1 == "XYZ")
  }

  test("KeyColonStyle narrowPA truncates multiline values, narrowPB does not") {
    val s   = KeyColonStyle("To", multilineValues = true)
    val doc = s.render("a@x.com,\n\tb@x.com", rng)
    assert(s.narrowPA("irrelevant").extract(doc) == "a@x.com,")
    assert(s.narrowPB.extract(doc) == "a@x.com, b@x.com")
  }

  test("KeyColonStyle general extractor handles case drift") {
    val doc = KeyColonStyle("PRODUCT CODE").render("XYZ", rng)
    assert(KeyColonStyle("Product Code").general.extract(doc) == "XYZ")
    assert(KeyColonStyle("Product Code").narrowPB.extract(doc) == "")
  }

  test("KeyColonStyle exposes its label for keyword search / DOM baselines") {
    assert(KeyColonStyle("Applicant").labelText.contains("Applicant"))
  }

  // -------------------------------------------------------------- Inline --

  test("InlineStyle render/parse roundtrip") {
    roundtrip(InlineStyle("the code ", " was assigned"), "K123456")
  }

  test("InlineStyle narrowPA is value-shape sensitive (the lowercase-k case)") {
    val s  = InlineStyle("number ", " assigned")
    val pa = s.narrowPA("K123456")
    assert(pa.extract("number K654321 assigned") == "K654321")
    assert(pa.extract("number k654321 assigned") == "", "shape regex must miss lowercase k")
  }

  test("InlineStyle narrowPB anchors on the prose and is shape-robust") {
    val s = InlineStyle("number ", " assigned")
    assert(s.narrowPB.extract("number k654321 assigned") == "k654321")
  }

  // -------------------------------------------------------------- TagRow --

  test("TagRowStyle plain render/parse roundtrip") {
    roundtrip(TagRowStyle("Director"), "Jane Doe")
  }

  test("TagRowStyle nested render still parses back to the clean value") {
    roundtrip(TagRowStyle("Born", nested = true), "June 29, 1988 (age 34) Washington, D.C.")
  }

  test("TagRowStyle nested rendering actually nests markup") {
    val html = TagRowStyle("Born", nested = true).render("June 29, 1988 (age 34) Washington, D.C.", rng)
    assert(html.contains("<span"))
    assert(html.contains("<a href="))
  }

  test("TagRowStyle narrowPA returns raw inner HTML on nested rows (sloppy)") {
    val s    = TagRowStyle("Born", nested = true)
    val html = s.render("June 29, 1988 (age 34) Washington, D.C.", rng)
    val out  = s.narrowPA("x").extract(html)
    assert(out.contains("<span") || out.contains("<a"), s"expected markup in '$out'")
  }

  test("TagRowStyle narrowPB strips markup on nested rows") {
    val s    = TagRowStyle("Born", nested = true)
    val html = s.render("June 29, 1988 (age 34) Washington, D.C.", rng)
    assert(s.narrowPB.extract(html) == "June 29, 1988 (age 34) Washington, D.C.")
  }

  test("TagRowStyle respects valueTag between variants") {
    val td = TagRowStyle("Phone", valueTag = "td")
    val dd = TagRowStyle("Phone", valueTag = "dd")
    val doc = dd.render("555", rng)
    assert(read(td, doc).isEmpty)
    assert(read(dd, doc) == Some(("555", doc.indexOf('>', doc.indexOf("<th")))))
  }

  test("TagRowStyle reader is case sensitive (distinct variants stay distinct)") {
    val doc = TagRowStyle("DIRECTOR").render("Jane Doe", rng)
    assert(read(TagRowStyle("Director"), doc).isEmpty)
    assert(read(TagRowStyle("DIRECTOR"), doc).get._1 == "Jane Doe")
  }

  test("TagRowStyle is a DOM leaf (visible to the Table-2 baselines)") {
    assert(TagRowStyle("X").domLeaf)
    assert(!MetaStyle("x").domLeaf)
    assert(!TitleStyle("-", "s").domLeaf)
    assert(!HrefStyle("/x/").domLeaf)
  }

  // ---------------------------------------------------------------- Meta --

  test("MetaStyle render/parse roundtrip") {
    roundtrip(MetaStyle("datePublished"), "2023-01-26")
  }

  test("MetaStyle general extractor reads the rendered meta") {
    val s = MetaStyle("name")
    assert(s.general.extract(s.render("Kevin Durant", rng)) == "Kevin Durant")
  }

  // --------------------------------------------------------------- Title --

  test("TitleStyle render/parse roundtrip") {
    roundtrip(TitleStyle(" - IMDb", "imdb"), "The Silent Harbor")
  }

  test("TitleStyle parse stops at the separator") {
    val s = TitleStyle(" | AllMovie", "allmovie")
    assert(read(s, s.render("Movie Name", rng)) == Some(("Movie Name", 0)))
  }

  // ---------------------------------------------------------------- Href --

  test("HrefStyle render/parse roundtrip") {
    roundtrip(HrefStyle("/year/"), "2012")
  }

  test("HrefStyle slugifies multi-word values in the target") {
    val html = HrefStyle("/wiki/college/").render("Penn State", rng)
    assert(html.contains("/wiki/college/penn-state"))
    assert(read(HrefStyle("/wiki/college/"), html) == Some(("Penn State", 0)))
  }

  // ----------------------------------------------------------- generic ----

  test("every style's general extractor recovers the value from its own rendering") {
    val cases: Seq[(Style, String)] = Seq(
      KeyColonStyle("Decision")            -> "substantially equivalent (SESE)",
      InlineStyle("decided on ", " by the") -> "June 1, 2001",
      TagRowStyle("College")               -> "Kentucky",
      TagRowStyle("Teams", nested = true)  -> "Boston Hawks, Austin Jazz",
      MetaStyle("name")                    -> "Magic Johnson",
      TitleStyle(" - W", "w")              -> "Tim Duncan",
      HrefStyle("/season/")                -> "1997",
    )
    cases.foreach { case (style, value) =>
      val doc = "x\n" + style.render(value, rng) + "\ny"
      assert(style.general.extract(doc) == value, style.toString)
    }
  }

  test("property: every reader equals the regex reference, value and start, on rendered documents of all 16 settings") {
    assert(Corpora.all.size == 16)
    var found = 0
    for (setting <- Corpora.all) {
      val styles = setting.attrs.flatMap(_.variants.map(_._1))
      val set    = new ExtractorSet(styles.map(_.reader))
      for (seed <- Seq(42L, 7L); idx <- 0L until 300L) {
        val text = DocGen.render(setting, idx, seed).text
        for ((style, hit) <- styles.zip(set.hits(text))) {
          val got      = if (hit.value.isEmpty) None else Some((hit.value, hit.start))
          val expected = StyleReference.parse(style, text)
          if (got != expected) fail(s"${setting.name} doc $idx seed $seed $style: $got vs $expected")
          if (got.isDefined) found += 1
        }
      }
    }
    assert(found > 100000, "the documents must exercise the readers")
  }

  test("shape pattern classifies digits, upper and lower case") {
    assert(Style.shapePattern("K12a") == "\\b[A-Z]\\d\\d[a-z]\\b")
  }
}
