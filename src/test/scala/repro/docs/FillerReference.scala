package repro.docs

import repro.util.Rng

/** `Filler.paragraph` as it was written before it rendered in one pass: one
  * `derive("w", i)` per word, a doubled space at each sentence break, and a
  * regex replace that undid it. The reference the one-pass renderer must
  * equal, character for character.
  */
object FillerReference {
  private val words: Vector[String] = Vector(
    "overall", "the", "this", "analysis", "describes", "procedure", "was",
    "conducted", "according", "to", "established", "protocols", "and",
    "results", "were", "within", "expected", "ranges", "further", "details",
    "are", "provided", "in", "appendix", "material", "additional",
    "considerations", "apply", "throughout", "evaluation", "process",
    "summary", "findings", "indicate", "consistent", "behavior", "across",
    "conditions", "tested", "during", "assessment", "period", "observed",
    "outcomes", "support", "stated", "conclusions", "under", "normal",
    "operating", "circumstances")

  def paragraph(rng: Rng, nWords: Int): String = {
    val sb = new StringBuilder
    var i  = 0
    while (i < nWords) {
      val w = rng.derive("w", i).pick(words)
      if (i == 0) sb.append(w.capitalize) else sb.append(" ").append(w)
      if ((i + 1) % 12 == 0 && i + 1 < nWords) sb.append(".").append(" ")
      i += 1
    }
    sb.append(".").toString.replace(". .", ".").replaceAll("\\.\\s+([a-z])", ". $1")
  }
}
