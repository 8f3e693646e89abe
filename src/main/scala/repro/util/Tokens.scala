package repro.util

/** Token accounting.
  *
  * The paper's cost metric is "total number of tokens processed by the LLM"
  * (prompt + generation). We approximate a BPE tokenizer with the standard
  * ~4-characters-per-token heuristic, which is monotone in text length and
  * deterministic — the *ratios* between systems that Tables 3 and 7 report
  * are preserved because every LLM call is metered with the same rule.
  * Figure 3 is analytic, from `CostModel`'s paper-geometry constants.
  */
object Tokens {

  /** Approximate token count of a text. */
  def count(s: String): Long =
    if (s == null || s.isEmpty) 0L else math.max(1L, math.ceil(s.length / 4.0).toLong)
}
