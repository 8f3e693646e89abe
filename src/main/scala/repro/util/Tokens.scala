package repro.util

/** Token accounting.
  *
  * The paper's cost metric is "total number of tokens processed by the LLM"
  * (prompt + generation). We approximate a BPE tokenizer with the standard
  * ~4-characters-per-token heuristic, which is monotone in text length and
  * deterministic — the *ratios* between systems (the quantity Table 3 and
  * Figure 3 report) are preserved exactly because every code path is metered
  * with the same rule.
  */
object Tokens {

  /** Approximate token count of a text. */
  def count(s: String): Long =
    if (s == null || s.isEmpty) 0L else math.max(1L, math.ceil(s.length / 4.0).toLong)
}
