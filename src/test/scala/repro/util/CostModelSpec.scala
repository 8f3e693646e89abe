package repro.util

import org.scalatest.funsuite.AnyFunSuite

class CostModelSpec extends AnyFunSuite {

  test("davinci pricing matches the paper's $0.02/1k") {
    assert(CostModel.dollars(1000000, "text-davinci-003") == 20.0)
  }

  test("gpt-3.5 pricing matches the paper's $0.002/1k") {
    assert(math.abs(CostModel.dollars(1000000, "gpt-3.5") - 2.0) < 1e-9)
  }

  test("intro sanity: 55M Wikipedia articles at ~1k tokens each cost >$100k on gpt-3.5") {
    // The paper quotes >$110k for gpt-3.5 over English Wikipedia.
    val tokens = 55_000_000L * 1000L
    assert(CostModel.dollars(tokens, "gpt-3.5") > 100000)
  }

  test("unknown model falls back to davinci pricing") {
    assert(CostModel.dollars(1000, "mystery") == 0.02)
  }

  test("per10kDocs extrapolates per-document costs linearly") {
    assert(CostModel.per10kDocs(1000, 10) == 1000000)
  }

  test("per10kDocs handles zero measured docs") {
    assert(CostModel.per10kDocs(999, 0) == 0)
  }

  test("direct token cost is linear in documents") {
    val one = CostModel.directTokens(1, 10000)
    assert(CostModel.directTokens(100, 10000) == 100 * one)
  }

  test("code token cost is independent of document count (by construction)") {
    // codeTokens has no nDocs parameter at all — the fixed-cost property.
    val t = CostModel.codeTokens(nAttrs = 10, docTokens = 10000)
    assert(t > 0)
  }

  test("code token cost is linear in attributes beyond the schema constant") {
    val t10 = CostModel.codeTokens(10, 10000)
    val t20 = CostModel.codeTokens(20, 10000)
    val t30 = CostModel.codeTokens(30, 10000)
    assert(t30 - t20 == t20 - t10)
  }

  test("Figure 3: document crossover is in the paper's ~40-doc regime") {
    val x = CostModel.crossoverDocs(nAttrs = 10, docTokens = 10000)
    assert(x >= 15 && x <= 80, s"crossover docs = $x")
  }

  test("Figure 3: attribute crossover is in the paper's ~2500-attr regime") {
    val x = CostModel.crossoverAttrs(nDocs = 10000, docTokens = 10000)
    assert(x >= 1000 && x <= 6000, s"crossover attrs = $x")
  }

  test("crossover attrs grows with lake size") {
    assert(CostModel.crossoverAttrs(100000, 10000) > CostModel.crossoverAttrs(10000, 10000))
  }

  test("crossover docs grows with attribute count") {
    assert(CostModel.crossoverDocs(100, 10000) > CostModel.crossoverDocs(10, 10000))
  }
}
