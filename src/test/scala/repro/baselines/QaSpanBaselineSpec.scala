package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.docs.{Corpora, DocGen}
import repro.eval.Metrics

class QaSpanBaselineSpec extends AnyFunSuite {

  private val seed = 42L

  test("extracts simple key-colon values (modulo span-boundary noise)") {
    val text = "Report intro.\nApplicant: Helix Diagnostics Inc.\nMore text."
    val out  = QaSpanBaseline.extract(text, "applicant")
    // Capacity noise may clip the span, but what is returned must be a
    // prefix of the true value.
    assert("Helix Diagnostics Inc.".startsWith(out))
  }

  test("returns empty when no line matches the query") {
    assert(QaSpanBaseline.extract("nothing relevant here", "product code") == "")
  }

  test("truncates long answers like a short-answer QA head") {
    val long = "Indications for Use: " + (1 to 20).map(i => s"tok$i").mkString(" ")
    val out  = QaSpanBaseline.extract(long, "indications for use")
    assert(out.split("\\s+").length <= 6)
  }

  test("mid-range ClosedIE quality on FDA (Table 6 regime: ~40-70 Text F1)") {
    val docs = DocGen.corpus(Corpora.fda, 30, seed)
    val f1s = docs.flatMap { d =>
      d.gold.map { case (a, v) => Metrics.textF1(QaSpanBaseline.extract(d.text, a), v) }
    }
    val avg = f1s.sum / f1s.size
    assert(avg > 0.25 && avg < 0.8, s"QA baseline FDA avg F1 = $avg")
  }

  test("weaker than Evaporate's function-based ClosedIE on HTML (nested markup leaks)") {
    val docs = DocGen.corpus(Corpora.nba, 20, seed)
    val f1s = docs.flatMap { d =>
      d.gold.map { case (a, v) => Metrics.textF1(QaSpanBaseline.extract(d.text, a), v) }
    }
    val avg = f1s.sum / f1s.size
    assert(avg < 0.75, s"NBA avg F1 = $avg")
  }

  test("extractAll equals one extract per attribute on documents of every setting") {
    for (s <- Corpora.all; d <- DocGen.corpus(s, 5, seed)) {
      val attrs = s.goldAttrs :+ "no such attribute" :+ "--"
      assert(QaSpanBaseline.extractAll(d.text, attrs) == attrs.map(QaSpanBaseline.extract(d.text, _)), d.id)
    }
  }

  test("deterministic") {
    val d = DocGen.render(Corpora.fda, 0, seed)
    assert(QaSpanBaseline.extract(d.text, "applicant") == QaSpanBaseline.extract(d.text, "applicant"))
  }
}
