package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.docs.{Corpora, DocGen, RenderedDoc}

class DomBaselinesSpec extends AnyFunSuite {

  private val seed  = 42L
  private val sites = Corpora.movieSites
  private val testSite = sites.head
  private val models = Seq(DomBaselines.ZeroShotCeres, DomBaselines.RobertaBase,
    DomBaselines.RobertaStructural, DomBaselines.DomLM)

  /** Each page with its leaf rows, read once. */
  private def read(docs: Seq[RenderedDoc]): Seq[(RenderedDoc, Seq[(String, String)])] =
    docs.map(d => (d, DomBaselines.leafPairs(d.text)))

  private lazy val labels = DomBaselines.train(
    sites.tail.flatMap(s => read(DocGen.corpus(s, 30, seed))))
  private lazy val testDocs = DocGen.corpus(testSite, 20, seed)

  private def closed(d: RenderedDoc, attrs: Seq[String], model: DomBaselines.Model): Seq[String] =
    DomBaselines.closedExtract(d.id, DomBaselines.leafPairs(d.text), attrs, model, labels, seed)

  test("leafPairs extracts label/value rows from rendered HTML") {
    val d     = testDocs.head
    val pairs = DomBaselines.leafPairs(d.text)
    assert(pairs.nonEmpty)
    // Every pair's label must be one of the site's rendered row labels.
    val rowLabels = testSite.attrs.flatMap(_.variants.map(_._1)).collect {
      case t: repro.docs.Style.TagRowStyle => t.label
    }.toSet
    pairs.foreach { case (l, _) => assert(rowLabels.contains(l), l) }
  }

  test("leafPairs cannot see title, meta or href attributes (the DOM blind spot)") {
    val d      = testDocs.head
    val pairs  = DomBaselines.leafPairs(d.text).map(_._2).toSet
    val title  = d.gold.get("title")
    assert(title.isDefined && !pairs.contains(title.get),
      "the movie title lives in <title> and must be invisible to leaf extraction")
  }

  test("training learns label->attribute mappings from other sites") {
    assert(labels.byLabel.nonEmpty)
    assert(labels.byLabel.values.toSet.subsetOf(testSite.goldAttrs.toSet ++ Seq("year", "release date")))
  }

  test("training requires at least two aligned examples per label") {
    val tiny = DomBaselines.train(read(DocGen.corpus(sites(1), 1, seed)))
    // One document cannot produce >=2 votes for most labels.
    assert(tiny.byLabel.size <= labels.byLabel.size)
  }

  test("matching power ordering: Base <= Structural <= DOM-LM on resolve") {
    // A label wording that exists on the test site but not in training.
    val unseen = "Directed by extra"
    val base   = labels.resolve(unseen, DomBaselines.RobertaBase)
    val domlm  = labels.resolve(unseen, DomBaselines.DomLM)
    assert(base.isEmpty, "exact matcher must miss unseen wording")
    assert(domlm.isDefined, "fuzzy matcher should map it to the director attribute")
  }

  test("DOM-LM fuzzy resolve maps token-overlapping labels") {
    assert(labels.resolve("Director", DomBaselines.DomLM).isDefined)
  }

  test("closedExtract returns gold values for attributes rendered as rows") {
    val model = DomBaselines.DomLM
    val hits = testDocs.flatMap { d =>
      d.gold.get("country").map { g =>
        closed(d, Seq("country"), model) == Seq(g)
      }
    }
    assert(hits.count(identity) > hits.size / 2, s"${hits.count(identity)}/${hits.size}")
  }

  test("closedExtract returns empty for out-of-DOM attributes") {
    testDocs.take(5).foreach { d =>
      assert(closed(d, Seq("title"), DomBaselines.DomLM) == Seq(""))
    }
  }

  test("openExtract emits (doc, attr, value) tuples grounded in the page") {
    val d      = testDocs.head
    val tuples = DomBaselines.openExtract(d.id, DomBaselines.leafPairs(d.text), DomBaselines.DomLM, labels, seed)
    tuples.foreach { case (id, attr, value) =>
      assert(id == testDocs.head.id)
      assert(attr.nonEmpty && value.nonEmpty)
    }
  }

  test("zero-shot Ceres uses raw label wordings as attribute names") {
    val d      = testDocs.head
    val tuples = DomBaselines.openExtract(d.id, DomBaselines.leafPairs(d.text), DomBaselines.ZeroShotCeres,
      DomBaselines.LabelMap(Map.empty), seed)
    assert(tuples.nonEmpty)
  }

  test("model quality ordering on closed extraction: DOM-LM >= RoBERTa-Base") {
    def score(model: DomBaselines.Model): Int = testDocs.map { d =>
      val gold = d.gold.toSeq
      gold.map(_._2).zip(closed(d, gold.map(_._1), model))
        .count { case (v, got) => got == v }
    }.sum
    val domlm = score(DomBaselines.DomLM)
    val base  = score(DomBaselines.RobertaBase)
    assert(domlm >= base, s"domlm=$domlm base=$base")
  }

  test("closedExtract and resolve equal their per-attribute reference on every SWDE site and model") {
    var found  = 0
    for (vertical <- Seq(Corpora.movieSites, Corpora.uniSites); site <- vertical) {
      val trained = DomBaselines.train(vertical.filterNot(_.name == site.name)
        .flatMap(s => read(DocGen.corpus(s, 30, seed))))
      // Gold attributes, one outside the DOM (and repeated on movie sites) and an unknown name.
      val attrs = site.goldAttrs ++ Seq("title", "no such attribute")
      for (model <- models; d <- DocGen.corpus(site, 10, seed)) {
        val labels = if (model == DomBaselines.ZeroShotCeres) DomBaselines.LabelMap(Map.empty) else trained
        val got    = DomBaselines.closedExtract(d.id, DomBaselines.leafPairs(d.text), attrs, model, labels, seed)
        assert(got == attrs.map(DomReference.closedExtract(d, _, model, labels, seed)),
          s"${site.name} ${model.name} ${d.id}")
        found += got.count(_.nonEmpty)
        for ((label, _) <- DomBaselines.leafPairs(d.text); wording <- Seq(label, label + " extra"))
          assert(trained.resolve(wording, model) == DomReference.resolve(trained, wording, model),
            s"${site.name} ${model.name} '$wording'")
      }
    }
    assert(found > 500, s"only $found values found")
  }

  test("openExtract, closedExtract and train over leaf rows read once equal their doc-reading references") {
    var opened = 0
    for (vertical <- Seq(Corpora.movieSites, Corpora.uniSites); site <- vertical) {
      val training = vertical.filterNot(_.name == site.name).flatMap(s => DocGen.corpus(s, 30, seed))
      val trained  = DomBaselines.train(read(training))
      assert(trained.byLabel.toSeq == DomReference.train(training).byLabel.toSeq, site.name)
      for (model <- models; (d, leaves) <- read(DocGen.corpus(site, 10, seed))) {
        val labels = if (model == DomBaselines.ZeroShotCeres) DomBaselines.LabelMap(Map.empty) else trained
        val clue   = s"${site.name} ${model.name} ${d.id}"
        val open   = DomBaselines.openExtract(d.id, leaves, model, labels, seed)
        assert(open == DomReference.openExtract(d, model, labels, seed), clue)
        assert(DomBaselines.closedExtract(d.id, leaves, site.goldAttrs, model, labels, seed) ==
          site.goldAttrs.map(DomReference.closedExtract(d, _, model, labels, seed)), clue)
        opened += open.size
      }
    }
    assert(opened > 500, s"only $opened open tuples")
  }
}
