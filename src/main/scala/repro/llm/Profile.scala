package repro.llm

/** Behavioural profile of a simulated LLM provider.
  *
  * The direct-extraction noise rates for text-davinci-003 are the paper's
  * own measurements (§4.4.1 error profile): 27.5% of gold attributes missed
  * per document, ~9.7 hallucinated attributes per document, attribute names
  * reworded into ~4 surface forms; ClosedIE extraction at ~80 Text F1
  * (Table 7). The function-synthesis mix reproduces the paper's function
  * quality distribution (40% of functions < 25 Text F1, 51% < 50 Text F1).
  * The other providers vary these rates in line with Table 5's findings:
  * gpt-4 comparable to davinci; claude chattier (refusals) and weaker at
  * code; jumbo unable to synthesize anything beyond trivial exact-key
  * extractors and much noisier at direct extraction.
  */
final case class Profile(
    model: String,
    // -- direct extraction noise ------------------------------------------
    missBase: Double,     // per-field miss probability in chunk 0
    missPerChunk: Double, // additional miss probability per later chunk
    missClosed: Double,   // miss probability when the attribute is given
    aliasProb: Double,    // probability of rewording the attribute name
    halluPerChunk: Double,// expected hallucinated attributes per chunk
    valueNoise: Double,   // probability of mangling an extracted value
    refusalProb: Double,  // chat-style refusal of a whole chunk
    // -- function synthesis outcome mix (before complexity penalty) -------
    pBroken: Double,
    pGeneral: Double,
    pSloppy: Double,
    complexityPenalty: Double, // added to pBroken, scaled by style complexity
    // -- schema re-ranking ------------------------------------------------
    keepRealProb: Double, // re-rank keeps a genuine attribute
    keepJunkProb: Double, // re-rank keeps a hallucinated attribute
) {
  def pNarrow: Double = math.max(0.0, 1.0 - pBroken - pGeneral - pSloppy)
}

object Profile {

  val davinci: Profile = Profile(
    model = "text-davinci-003",
    missBase = 0.10, missPerChunk = 0.06, missClosed = 0.09,
    aliasProb = 0.40, halluPerChunk = 2.4, valueNoise = 0.10, refusalProb = 0.0,
    pBroken = 0.25, pGeneral = 0.15, pSloppy = 0.30, complexityPenalty = 0.15,
    keepRealProb = 0.90, keepJunkProb = 0.15,
  )

  val gpt4: Profile = Profile(
    model = "gpt-4",
    missBase = 0.09, missPerChunk = 0.055, missClosed = 0.08,
    aliasProb = 0.38, halluPerChunk = 2.2, valueNoise = 0.09, refusalProb = 0.0,
    pBroken = 0.22, pGeneral = 0.17, pSloppy = 0.28, complexityPenalty = 0.12,
    keepRealProb = 0.92, keepJunkProb = 0.12,
  )

  val claude: Profile = Profile(
    model = "claude-v1",
    missBase = 0.13, missPerChunk = 0.08, missClosed = 0.18,
    aliasProb = 0.45, halluPerChunk = 2.8, valueNoise = 0.15, refusalProb = 0.15,
    pBroken = 0.45, pGeneral = 0.06, pSloppy = 0.34, complexityPenalty = 0.45,
    keepRealProb = 0.90, keepJunkProb = 0.18,
  )

  val jumbo: Profile = Profile(
    model = "jurassic-jumbo-2",
    missBase = 0.20, missPerChunk = 0.09, missClosed = 0.20,
    aliasProb = 0.50, halluPerChunk = 3.5, valueNoise = 0.22, refusalProb = 0.05,
    pBroken = 0.35, pGeneral = 0.02, pSloppy = 0.60, complexityPenalty = 1.30,
    keepRealProb = 0.85, keepJunkProb = 0.25,
  )

  /** Small/cheap model from the paper's footnote 2 (text-curie-001):
    * misses more and hallucinates far more than davinci.
    */
  val curie: Profile = Profile(
    model = "text-curie-001",
    missBase = 0.20, missPerChunk = 0.09, missClosed = 0.15,
    aliasProb = 0.40, halluPerChunk = 7.5, valueNoise = 0.20, refusalProb = 0.0,
    pBroken = 0.40, pGeneral = 0.05, pSloppy = 0.35, complexityPenalty = 0.50,
    keepRealProb = 0.80, keepJunkProb = 0.35,
  )
}
