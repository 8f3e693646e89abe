package repro.llm

import org.scalatest.funsuite.AnyFunSuite
import repro.docs.{Corpora, DocGen, Naming, StyleReference}
import repro.util.Tokens

class SimLMSpec extends AnyFunSuite {

  private val seed = 42L
  private def lm(profile: Profile = Profile.davinci, setting: repro.docs.Setting = Corpora.fda) =
    SimLM(profile, setting, seed)

  private val fdaDocs   = DocGen.corpus(Corpora.fda, 40, seed)
  private val enronDocs = DocGen.corpus(Corpora.enron, 40, seed)

  // ------------------------------------------------------- open extraction

  test("openExtract is deterministic") {
    val d = fdaDocs.head
    assert(lm().openExtract(d.id, d.text) == lm().openExtract(d.id, d.text))
  }

  test("openExtract returns positive token counts that grow with document length") {
    val short = enronDocs.head
    val long  = fdaDocs.head
    val tShort = SimLM(Profile.davinci, Corpora.enron, seed).openExtract(short.id, short.text).tokens
    val tLong  = lm().openExtract(long.id, long.text).tokens
    assert(tShort > 0 && tLong > tShort)
  }

  test("openExtract misses roughly the paper's 27.5% of present gold attributes") {
    val rates = fdaDocs.map { d =>
      val out  = lm().openExtract(d.id, d.text)
      val got  = out.pairs.map(p => Corpora.fda.attrByName(p.attr).map(_.name)).flatten.toSet
      1.0 - got.intersect(d.gold.keySet).size.toDouble / math.max(1, d.gold.size)
    }
    val avg = rates.sum / rates.size
    assert(avg > 0.12 && avg < 0.42, s"avg miss rate $avg (paper: 0.275)")
  }

  test("openExtract hallucinates several non-gold attributes per document (paper: ~9.7)") {
    val counts = fdaDocs.map { d =>
      lm().openExtract(d.id, d.text).pairs.count(p => Corpora.fda.attrByName(p.attr).isEmpty)
    }
    val avg = counts.sum.toDouble / counts.size
    assert(avg > 3 && avg < 20, s"avg hallucinations $avg")
  }

  test("hallucinated names never collide with gold attributes or aliases") {
    fdaDocs.take(10).foreach { d =>
      val junk = lm().openExtract(d.id, d.text).pairs
        .filter(p => Corpora.fda.attrByName(p.attr).isEmpty)
      junk.foreach { p =>
        assert(Corpora.fda.attrs.forall(a =>
          Naming.normalize(a.name) != Naming.normalize(p.attr) &&
            !a.aliases.exists(al => Naming.normalize(al) == Naming.normalize(p.attr))))
      }
    }
  }

  test("openExtract rewords attribute names using declared aliases") {
    val surfaces = fdaDocs.flatMap { d =>
      lm().openExtract(d.id, d.text).pairs
        .filter(p => Corpora.fda.attrByName(p.attr).exists(_.name == "classification"))
        .map(p => Naming.normalize(p.attr))
    }.toSet
    assert(surfaces.size >= 2, s"expected reworded surfaces, got $surfaces")
  }

  test("extracted values are grounded in the document (parse-based, not gold-copied)") {
    val d   = fdaDocs.head
    val out = lm().openExtract(d.id, d.text)
    out.pairs.filter(p => Corpora.fda.attrByName(p.attr).isDefined).foreach { p =>
      // Either the exact parsed value or a mangle of it — first token must
      // appear in the document text (hallucination noise only applies to
      // junk attributes).
      val head = p.value.split("\\s+").head
      assert(p.value.isEmpty || d.text.contains(head), s"${p.attr} -> ${p.value}")
    }
  }

  test("claude profile refuses some chunks entirely") {
    val c       = SimLM(Profile.claude, Corpora.fda, seed)
    val base    = SimLM(Profile.davinci, Corpora.fda, seed)
    val cPairs  = fdaDocs.map(d => c.openExtract(d.id, d.text).pairs.size).sum
    val dPairs  = fdaDocs.map(d => base.openExtract(d.id, d.text).pairs.size).sum
    assert(cPairs < dPairs, s"claude should extract fewer pairs ($cPairs vs $dPairs)")
  }

  // ------------------------------------------------------ closed extraction

  test("closedExtract finds present attributes most of the time (Table 7 regime)") {
    val hits = enronDocs.flatMap { d =>
      d.gold.keys.toSeq.map { a =>
        val (v, _) = SimLM(Profile.davinci, Corpora.enron, seed).closedExtract(d.id, d.text, a)
        v.nonEmpty
      }
    }
    val rate = hits.count(identity).toDouble / hits.size
    assert(rate > 0.8, s"closed hit rate $rate")
  }

  test("closedExtract returns empty for attributes absent from the document") {
    val d = enronDocs.find(!_.gold.contains("bcc")).get
    val (v, t) = SimLM(Profile.davinci, Corpora.enron, seed).closedExtract(d.id, d.text, "bcc")
    assert(v == "")
    assert(t > 0, "absent attributes still cost prompt tokens")
  }

  test("closedExtract returns empty for unknown attribute names") {
    val d = fdaDocs.head
    assert(lm().closedExtract(d.id, d.text, "no such attribute")._1 == "")
  }

  test("closedExtract accepts aliases for the attribute name") {
    val d = fdaDocs.find(_.gold.contains("classification")).get
    val (v, _) = lm().closedExtract(d.id, d.text, "device classification")
    // May be missed by noise, but when extracted it matches the document.
    if (v.nonEmpty) assert(v.startsWith("Class"))
  }

  test("closedExtract is cheaper per call than openExtract on long documents") {
    val d = fdaDocs.head
    val open   = lm().openExtract(d.id, d.text).tokens
    val closed = lm().closedExtract(d.id, d.text, "applicant")._2
    assert(closed < open)
  }

  test("closedExtract reads what the variant regexes read: every attribute, an alias, an unknown name") {
    // Without noise, closedExtract returns its grounded value. One call per
    // document answers every gold attribute, an alias, an unknown name and a
    // repeated name, each at its own position.
    val noiseless = Profile.davinci.copy(missClosed = 0.0, refusalProb = 0.0, valueNoise = 0.0)
    var found     = 0
    for (setting <- Corpora.all; d <- DocGen.corpus(setting, 10, seed)) {
      val closed  = SimLM(noiseless, setting, seed)
      val alias   = setting.attrs.flatMap(_.aliases).take(1)
      val names   = setting.goldAttrs ++ alias ++ Seq("no such attribute", setting.goldAttrs.head)
      val answers = closed.closedExtract(d.id, d.text, names)
      val base    = Prompts.closedTokens + math.min(600L, Tokens.count(d.text))
      assert(answers.size == names.size)
      for ((name, (v, t)) <- names.zip(answers)) {
        val expected = setting.attrByName(name).flatMap(StyleReference.parse(_, d.text)).map(_.value)
        assert(v == expected.getOrElse(""), s"${setting.name} ${d.id} $name")
        assert(t == base + expected.map(Tokens.count).getOrElse(0L))
        if (v.nonEmpty) found += 1
      }
      assert(closed.closedExtract(d.id, d.text, Nil).isEmpty)
    }
    assert(found > 1000, "the documents must hold the attributes")
  }

  // ------------------------------------------------------------- reranking

  test("rerank keeps most genuine attributes and drops most junk") {
    val genuine = Corpora.fda.attrs.map(_.name)
    val junk    = Seq("internal notes", "page header", "related remarks", "primary footer",
      "secondary status", "additional label", "related summary", "internal reference")
    val (kept, tokens) = lm().rerank(genuine ++ junk)
    assert(tokens > 0)
    val keptGenuine = genuine.count(kept.contains) / genuine.size.toDouble
    val keptJunk    = junk.count(kept.contains) / junk.size.toDouble
    assert(keptGenuine > 0.7, s"kept $keptGenuine of genuine")
    assert(keptJunk < 0.5, s"kept $keptJunk of junk")
  }

  // ------------------------------------------------------------ validation

  test("validateAttr accepts mostly-non-empty value samples and rejects empty ones") {
    assert(lm().validateAttr("product code", Seq("ABC", "KQD", "XYZ"))._1)
    assert(!lm().validateAttr("product code", Seq("", "", ""))._1)
    assert(!lm().validateAttr("product code", Seq())._1)
  }

  test("SimLM is serializable (Direct's lake pass calls it inside Spark tasks)") {
    val bytes = new java.io.ByteArrayOutputStream()
    val oos   = new java.io.ObjectOutputStream(bytes)
    oos.writeObject(lm())
    oos.close()
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[SimLM]
    val d = fdaDocs.head
    assert(copy.openExtract(d.id, d.text) == lm().openExtract(d.id, d.text))
  }
}
