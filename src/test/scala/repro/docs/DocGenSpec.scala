package repro.docs

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import java.util.HexFormat
import org.scalatest.funsuite.AnyFunSuite
import repro.fn.ExtractorSet

class DocGenSpec extends AnyFunSuite {

  private val seed = 42L

  test("rendering is deterministic in (setting, idx, seed)") {
    val a = DocGen.render(Corpora.fda, 3, seed)
    val b = DocGen.render(Corpora.fda, 3, seed)
    assert(a == b)
  }

  /** SHA-256 over the first 50 documents of every setting at `seed`: each
    * document's id, text, and its gold and variant maps sorted by attribute.
    */
  private def renderDigest(seed: Long): String = {
    val md = MessageDigest.getInstance("SHA-256")
    for (setting <- Corpora.all; d <- DocGen.corpus(setting, 50, seed)) {
      val gold     = d.gold.toSeq.sorted.map { case (a, v) => s"$a=$v" }
      val variants = d.variantIdx.toSeq.sorted.map { case (a, i) => s"$a=$i" }
      md.update((Seq(d.id, d.text) ++ gold ++ variants).mkString("\u0000", "\u0001", "\u0002").getBytes(UTF_8))
    }
    HexFormat.of.formatHex(md.digest())
  }

  test("rendered documents match their golden digests (first 50 of every setting, seeds 42 and 7)") {
    val golden = Map(
      42L -> "af148b2cea106673482a68091da55fed42386d22cca6bb8e528973f179f998a0",
      7L  -> "25a69fb39e322785b392b218edcf56821419793c417c1e54bf4ee0b2e0c4332b",
    )
    assert(golden.map { case (s, _) => s -> renderDigest(s) } == golden)
  }

  test("different documents differ") {
    assert(DocGen.render(Corpora.fda, 0, seed).text != DocGen.render(Corpora.fda, 1, seed).text)
  }

  test("different seeds differ") {
    assert(DocGen.render(Corpora.fda, 0, 1).text != DocGen.render(Corpora.fda, 0, 2).text)
  }

  test("doc ids are unique and prefixed by the setting") {
    val ids = DocGen.corpus(Corpora.enron, 20, seed).map(_.id)
    assert(ids.distinct.size == 20)
    assert(ids.forall(_.startsWith("enron-doc-")))
  }

  test("gold only contains declared attributes") {
    val names = Corpora.nba.attrs.map(_.name).toSet
    DocGen.corpus(Corpora.nba, 10, seed).foreach { d =>
      assert(d.gold.keySet.subsetOf(names))
    }
  }

  test("attribute coverage rates are honored approximately") {
    val docs = DocGen.corpus(Corpora.enron, 300, seed)
    val bcc  = docs.count(_.gold.contains("bcc")) / 300.0
    val from = docs.count(_.gold.contains("from")) / 300.0
    assert(bcc > 0.2 && bcc < 0.4, s"bcc coverage $bcc (spec 0.3)")
    assert(from == 1.0, s"from coverage $from (spec 1.0)")
  }

  test("variant weights are honored approximately") {
    // FDA '510(k) number': KeyColon 0.70 / upper 0.15 / inline 0.15
    val docs = DocGen.corpus(Corpora.fda, 400, seed).filter(_.variantIdx.contains("510(k) number"))
    val v0   = docs.count(_.variantIdx("510(k) number") == 0).toDouble / docs.size
    assert(v0 > 0.6 && v0 < 0.8, s"variant-0 share $v0")
  }

  test("every present attribute's rendered form parses back to the gold value") {
    for (setting <- Seq(Corpora.fda, Corpora.enron, Corpora.nba, Corpora.movieSites.head, Corpora.uniSites.head)) {
      DocGen.corpus(setting, 15, seed).foreach { d =>
        val parsed = DocParser.read(setting, d.text).map { case (_, f) => f.attr -> f.value }.toMap
        d.gold.foreach { case (attr, value) =>
          assert(parsed.contains(attr), s"${setting.name}: '$attr' not parsed back")
          val norm = (s: String) => s.replaceAll("\\s+", " ").trim
          assert(norm(parsed(attr)) == norm(value),
            s"${setting.name}/$attr: parsed '${parsed(attr)}' vs gold '$value'")
        }
      }
    }
  }

  test("parser reports no attributes absent from the document") {
    DocGen.corpus(Corpora.enron, 25, seed).foreach { d =>
      val parsed = DocParser.read(Corpora.enron, d.text).map(_._2.attr).toSet
      assert(parsed == d.gold.keySet)
    }
  }

  test("parser offsets point at the field position") {
    for (setting <- Corpora.all; d <- DocGen.corpus(setting, 20, seed)) {
      val read   = DocParser.read(setting, d.text)
      assert(read.forall { case (a, f) => a.name == f.attr })
      val parsed = read.map(_._2)
      parsed.foreach(f => assert(f.offset >= 0 && f.offset < d.text.length))
      assert(parsed == StyleReference.parse(setting, d.text), s"${setting.name} ${d.id}")
    }
  }

  test("parser reports an attribute's first variant with a value, wherever later ones sit") {
    val rng     = repro.util.Rng(3)
    var checked = 0
    for (setting <- Corpora.all; a <- setting.attrs if a.variants.size >= 2) {
      val Seq(first, second) = a.variants.take(2).map(_._1)
      // The second variant is rendered earlier in the text than the first.
      val text = Seq("intro", second.render("Value Two", rng), Filler.paragraph(rng, 20),
        first.render("Value One", rng), "end").mkString("\n")
      val one = new ExtractorSet(Seq(first.reader, second.reader)).hits(text)
      if (one.map(_.value) == Seq("Value One", "Value Two")) {
        assert(one(1).start < one(0).start)
        val field = DocParser.read(setting, text).map(_._2).find(_.attr == a.name)
        assert(field.contains(DocParser.ParsedField(a.name, "Value One", one(0).start)),
          s"${setting.name}/${a.name}")
        checked += 1
      }
    }
    assert(checked > 20, s"only $checked attributes render two readable variants")
  }

  test("HTML settings render a head and body") {
    val d = DocGen.render(Corpora.nba, 0, seed)
    assert(d.text.startsWith("<html>"))
    assert(d.text.contains("<head>") && d.text.contains("<body>"))
    assert(d.text.endsWith("</html>"))
  }

  test("HTML row fields are wrapped in an infobox table") {
    val d = DocGen.render(Corpora.nba, 1, seed)
    assert(d.text.contains("<table class=\"infobox\">"))
  }

  test("TXT settings contain no HTML") {
    val d = DocGen.render(Corpora.fda, 2, seed)
    assert(!d.text.contains("<html>"))
  }

  test("documents are multi-chunk where the paper's settings are long") {
    val fda   = DocGen.render(Corpora.fda, 0, seed).text.length
    val nba   = DocGen.render(Corpora.nba, 0, seed).text.length
    val enron = DocGen.render(Corpora.enron, 0, seed).text.length
    assert(fda > 2 * 2400, s"FDA docs should span >2 chunks, got $fda chars")
    assert(nba > fda, "NBA pages are the longest in the paper's cost table")
    assert(enron < 2400, "Enron emails fit in one chunk")
  }

  test("filler paragraphs are deterministic and non-empty") {
    val f1 = Filler.paragraph(repro.util.Rng(1), 50)
    val f2 = Filler.paragraph(repro.util.Rng(1), 50)
    assert(f1 == f2 && f1.split("\\s+").length >= 45)
  }

  test("filler paragraphs equal the reference renderer for 0-40 words over 1,000 seeds") {
    for (i <- 0 until 1000; n <- 0 to 40) {
      val rng = repro.util.Rng(i.toLong).derive("filler", n)
      assert(Filler.paragraph(rng, n) == FillerReference.paragraph(rng, n), s"seed $i, $n words")
    }
  }

  test("filler paragraphs equal the reference renderer at every setting's word count and at nWords <= 0 over 1,000 seeds") {
    val counts = Corpora.all.map(_.fillerWordsPerSection).distinct
    assert(counts.toSet == Set(40, 120, 140, 180, 280))
    for (i <- 0 until 1000; n <- counts ++ Seq(0, -1, -12, Int.MinValue)) {
      val rng = repro.util.Rng(i.toLong).derive("filler", n)
      assert(Filler.paragraph(rng, n) == FillerReference.paragraph(rng, n), s"seed $i, $n words")
    }
  }

  test("filler never collides with any attribute label") {
    val labels = Corpora.all.flatMap(_.attrs.flatMap(_.variants.flatMap(_._1.labelText))).distinct
    val filler = (0 until 50).map(i => Filler.paragraph(repro.util.Rng(i.toLong), 100)).mkString(" ")
    labels.foreach(l => assert(!filler.contains(l + ":"), s"filler collides with '$l'"))
  }
}
