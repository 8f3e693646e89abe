package repro.util

import org.scalatest.funsuite.AnyFunSuite

class TokensSpec extends AnyFunSuite {

  test("empty and null are zero tokens") {
    assert(Tokens.count("") == 0L)
    assert(Tokens.count(null) == 0L)
  }

  test("non-empty text is at least one token") {
    assert(Tokens.count("a") == 1L)
  }

  test("count follows the 4-chars-per-token heuristic") {
    assert(Tokens.count("abcdefgh") == 2L)
    assert(Tokens.count("abcdefghi") == 3L)
  }

  test("count is monotone in length") {
    val texts = Seq("x", "hello", "hello world", "hello world, longer sentence here")
    val counts = texts.map(Tokens.count)
    assert(counts == counts.sorted)
  }
}
