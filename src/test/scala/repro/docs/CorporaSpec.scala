package repro.docs

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.PaperNumbers

class CorporaSpec extends AnyFunSuite {

  test("there are exactly 16 settings, as in the paper") {
    assert(Corpora.all.size == 16)
  }

  test("the five reporting groups match the paper's table rows") {
    assert(Corpora.all.map(_.group).distinct == PaperNumbers.groups)
    assert(PaperNumbers.groups.map(g => Corpora.all.count(_.group == g)) == Seq(1, 1, 1, 8, 5))
  }

  test("FDA has 16 gold attributes (paper: 16)") {
    assert(Corpora.fda.attrs.size == 16)
  }

  test("Enron has 15 gold attributes (paper: 15)") {
    assert(Corpora.enron.attrs.size == 15)
  }

  test("Wiki NBA has 19 gold attributes (paper: 19)") {
    assert(Corpora.nba.attrs.size == 19)
  }

  test("8 movie sites and 5 university sites (paper: SWDE 8+5)") {
    assert(Corpora.movieSites.size == 8)
    assert(Corpora.uniSites.size == 5)
  }

  test("setting names are unique") {
    assert(Corpora.all.map(_.name).distinct.size == 16)
  }

  test("byName resolves every setting and rejects unknowns") {
    Corpora.all.foreach(s => assert(Corpora.byName(s.name) eq s))
    intercept[RuntimeException](Corpora.byName("nope"))
  }

  test("TXT settings are FDA and Enron; the rest are HTML") {
    assert(Corpora.all.filter(_.format == "TXT").map(_.name).toSet == Set("fda", "enron"))
    assert(Corpora.all.count(_.isHtml) == 14)
  }

  test("attrByName resolves canonical names and aliases, normalized") {
    assert(Corpora.fda.attrByName("classification").map(_.name).contains("classification"))
    assert(Corpora.fda.attrByName("Device Classification").map(_.name).contains("classification"))
    assert(Corpora.fda.attrByName("REGULATORY INFORMATION").map(_.name).contains("classification"))
    assert(Corpora.fda.attrByName("not an attribute").isEmpty)
  }

  test("every setting's attributes have at least one variant and valid coverage") {
    Corpora.all.foreach { s =>
      s.attrs.foreach { a =>
        assert(a.variants.nonEmpty)
        assert(a.coverage > 0 && a.coverage <= 1)
      }
    }
  }

  test("Enron headers are single-variant (rigid format, the paper's easy setting)") {
    assert(Corpora.enron.attrs.forall(_.variants.size == 1))
  }

  test("FDA and SWDE attributes are multi-variant (formatting drift drives Code+)") {
    assert(Corpora.fda.attrs.count(_.variants.size >= 2) >= 12)
    Corpora.movieSites.foreach(s => assert(s.attrs.count(_.variants.size >= 2) >= 8))
  }

  test("NBA includes nested (compound) infobox variants") {
    val nested = Corpora.nba.attrs.flatMap(_.variants.map(_._1)).collect {
      case t: Style.TagRowStyle if t.nested => t
    }
    assert(nested.nonEmpty)
  }

  test("SWDE-Plus: each vertical exposes attributes outside the DOM body") {
    def nonLeafAttrs(s: Setting): Seq[String] =
      s.attrs.filter(_.variants.exists { case (st, w) => w > 0.5 && !st.domLeaf }).map(_.name)
    Corpora.movieSites.foreach(s => assert(nonLeafAttrs(s).nonEmpty, s.name))
    Corpora.uniSites.foreach(s => assert(nonLeafAttrs(s).nonEmpty, s.name))
  }

  test("movie sites drift in label wording across sites (what breaks exact-match baselines)") {
    val directorLabels = Corpora.movieSites.flatMap { s =>
      s.attrs.find(_.name == "director").get.variants.collectFirst {
        case (t: Style.TagRowStyle, _) => t.label
      }
    }
    assert(directorLabels.distinct.size >= 3, directorLabels.toString)
  }

  test("every setting renders and parses at least its high-coverage attributes") {
    Corpora.all.foreach { s =>
      val d      = DocGen.render(s, 0, 42L)
      val parsed = DocParser.read(s, d.text).map(_._2.attr).toSet
      assert(parsed == d.gold.keySet, s.name)
      assert(d.gold.nonEmpty, s.name)
    }
  }

  test("510(k) numbers include the paper's minority-lowercase-k values") {
    val vals = (0 until 300).map(i => Values.k510(repro.util.Rng(7).derive(i)))
    val frac = vals.count(_.startsWith("k")).toDouble / vals.size
    assert(frac > 0.08 && frac < 0.3, s"lowercase-k fraction $frac")
    assert(vals.forall(_.matches("[kK]\\d{6}")))
  }

  test("settings are serializable (they travel inside Spark UDFs)") {
    val oos = new java.io.ObjectOutputStream(new java.io.ByteArrayOutputStream())
    Corpora.all.foreach(oos.writeObject)
  }
}
