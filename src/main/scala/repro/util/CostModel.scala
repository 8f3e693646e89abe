package repro.util

/** Dollar-cost model and the Figure-3 asymptotic cost curves.
  *
  * Prices are the March-2023 OpenAI list prices the paper quotes:
  * text-davinci-003 at \$0.02 / 1k tokens (used for Table 3's \$ column)
  * and gpt-3.5 at \$0.002 / 1k tokens (used in the introduction's Wikipedia
  * estimate).
  */
object CostModel {

  /** \$ per 1k tokens by model name. */
  val pricePer1k: Map[String, Double] = Map(
    "text-davinci-003"        -> 0.02,
    "gpt-4"                   -> 0.03,
    "gpt-3.5"                 -> 0.002,
    "text-curie-001"          -> 0.002,
    "claude-v1"               -> 0.0163,
    "jurassic-jumbo-2"        -> 0.015,
  )

  def dollars(tokens: Long, model: String = "text-davinci-003"): Double =
    tokens / 1000.0 * pricePer1k.getOrElse(model, 0.02)

  /** Extrapolate `tokens`, spent on `measuredDocs` documents by a run whose
    * every token is per document (Direct, the LLM F), to the paper's "per 10k
    * documents" column. A Code(+) run's tokens are fixed in the lake size,
    * so its per-10k cost is its own token count.
    */
  def per10kDocs(tokens: Long, measuredDocs: Long): Long =
    if (measuredDocs == 0) 0L else math.round(tokens.toDouble / measuredDocs * 10000.0)

  // The Figure-3 prompt geometry. Direct: every chunk of a `Window`-token
  // context adds `PromptOverhead` prompt and `GenPerChunk` generated tokens.
  // Code(+): schema synthesis over `SampleDocs` documents, `Candidates`
  // synthesis prompts of ~`SynthPrompt` tokens per attribute, and `EvalDocs`
  // D_eval labels of `ClosedPrompt` tokens plus up to a window of text.
  private val PromptOverhead = 900L
  private val Window         = 2400L
  private val GenPerChunk    = 300L
  private val SampleDocs     = 10L
  private val Candidates     = 10L
  private val SynthPrompt    = 1500L
  private val EvalDocs       = 10L
  private val ClosedPrompt   = 500L

  /** Token cost of Evaporate-Direct for `nDocs` documents of `docTokens`
    * tokens each (every token of every document passes through the LLM,
    * plus per-chunk prompt overhead and generation).
    */
  def directTokens(nDocs: Long, docTokens: Long): Long = {
    val chunks = math.max(1L, math.ceil(docTokens.toDouble / Window).toLong)
    nDocs * (docTokens + chunks * (PromptOverhead + GenPerChunk))
  }

  /** Token cost of Evaporate-Code(+) — fixed in the number of documents:
    * schema synthesis + per-attribute function synthesis + D_eval labeling.
    */
  def codeTokens(nAttrs: Long, docTokens: Long): Long = {
    val schema = directTokens(SampleDocs, docTokens)
    val synth  = nAttrs * Candidates * SynthPrompt
    val eval   = nAttrs * EvalDocs * (ClosedPrompt + math.min(docTokens, Window))
    schema + synth + eval
  }

  /** Smallest document count at which Code(+) is cheaper than Direct —
    * the paper reports ~40 documents at 10 attributes, 10k tokens/doc.
    */
  def crossoverDocs(nAttrs: Long, docTokens: Long): Long = {
    val fixed  = codeTokens(nAttrs, docTokens)
    val perDoc = directTokens(1, docTokens)
    math.max(1L, math.ceil(fixed.toDouble / perDoc).toLong)
  }

  /** Largest attribute count at which Code(+) is still cheaper than Direct
    * for a lake of `nDocs` documents — the paper reports ~2,500 attributes
    * at 10k documents, 10k tokens/doc.
    */
  def crossoverAttrs(nDocs: Long, docTokens: Long): Long = {
    val direct = directTokens(nDocs, docTokens)
    var lo = 1L; var hi = 1000000L
    while (lo < hi) {
      val mid = (lo + hi + 1) / 2
      if (codeTokens(mid, docTokens) <= direct) lo = mid else hi = mid - 1
    }
    lo
  }
}
