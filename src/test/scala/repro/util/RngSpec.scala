package repro.util

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

class RngSpec extends AnyFunSuite {

  /** Draw `n` samples from a ScalaCheck generator deterministically. */
  private def samples[T](gen: Gen[T], n: Int): Seq[T] =
    (0 until n).flatMap(i => gen.apply(Gen.Parameters.default, Seed(i.toLong)))

  test("derive is deterministic") {
    assert(Rng(1).derive("a", 2).seed == Rng(1).derive("a", 2).seed)
  }

  test("derive differs by key") {
    assert(Rng(1).derive("a").seed != Rng(1).derive("b").seed)
  }

  test("derive differs by seed") {
    assert(Rng(1).derive("a").seed != Rng(2).derive("a").seed)
  }

  test("derive order matters") {
    assert(Rng(1).derive("a", "b").seed != Rng(1).derive("b", "a").seed)
  }

  test("indexed(key)(i) equals derive(key, i) bit for bit") {
    for (s <- samples(Gen.long, 50) ++ Seq(Long.MinValue, -1L, 0L, Long.MaxValue);
         key <- Seq("w", "shuffle", "", "filler")) {
      val draw = Rng(s).indexed(key)
      (Seq(0L, 1L, -1L, Long.MinValue, Long.MaxValue) ++ (0L until 100L)).foreach { i =>
        assert(draw(i) == Rng(s).derive(key, i), s"seed $s, key '$key', index $i")
      }
      (0 until 100).foreach(i => assert(draw(i) == Rng(s).derive(key, i), s"seed $s, key '$key', Int $i"))
    }
  }

  test("chained derive equals flat derive only when keys aggregate identically") {
    // Not an algebraic identity, just must be deterministic both ways.
    val a = Rng(9).derive("x").derive("y")
    val b = Rng(9).derive("x").derive("y")
    assert(a == b)
  }

  test("double is in [0,1)") {
    (0 until 1000).foreach { i =>
      val d = Rng(5).derive(i).double
      assert(d >= 0.0 && d < 1.0)
    }
  }

  test("double is roughly uniform") {
    val ds   = (0 until 10000).map(i => Rng(7).derive(i).double)
    val mean = ds.sum / ds.size
    assert(math.abs(mean - 0.5) < 0.02, s"mean=$mean")
    assert(ds.count(_ < 0.1) > 700 && ds.count(_ < 0.1) < 1300)
  }

  test("int(n) covers the range") {
    val xs = (0 until 2000).map(i => Rng(3).derive(i).int(7)).toSet
    assert(xs == (0 until 7).toSet)
  }

  test("int(n) equals the old draw (((mix(seed) >>> 1) % n) + n) % n up to n = 2^30, and is in [0, n) above") {
    val seeds = samples(Gen.long, 200) ++ Seq(Long.MinValue, -1L, 0L, Long.MaxValue)
    for (s <- seeds; n <- Seq(1, 2, 7, 51, 999, 10000, 1 << 30))
      assert(Rng(s).int(n) == (((Rng.mix(s) >>> 1) % n).toInt + n) % n, s"seed $s, n $n")
    for (s <- seeds; n <- Seq((1 << 30) + 1, Int.MaxValue - 1, Int.MaxValue)) {
      val v = Rng(s).int(n)
      assert(v >= 0 && v < n, s"seed $s, n $n: $v")
    }
  }

  test("int(n) is non-negative for adversarial seeds") {
    (Seq(Long.MinValue, -1L, 0L, Long.MaxValue)).foreach { s =>
      val v = Rng(s).int(13)
      assert(v >= 0 && v < 13)
    }
  }

  test("longBetween stays in bounds") {
    (0 until 500).foreach { i =>
      val v = Rng(11).derive(i).longBetween(5, 9)
      assert(v >= 5 && v <= 9)
    }
  }

  test("pick returns an element") {
    val xs = Seq("a", "b", "c")
    (0 until 100).foreach(i => assert(xs.contains(Rng(13).derive(i).pick(xs))))
  }

  test("pickWeighted respects weights approximately") {
    val picks = (0 until 10000).map(i =>
      Rng(17).derive(i).pickWeighted(Seq("x" -> 0.9, "y" -> 0.1)))
    val fx = picks.count(_ == "x") / 10000.0
    assert(fx > 0.85 && fx < 0.95, s"fx=$fx")
  }

  test("pickWeighted with a single item always returns it") {
    assert(Rng(1).pickWeighted(Seq("only" -> 0.3)) == "only")
  }

  test("bool(p) matches p approximately") {
    val hits = (0 until 10000).count(i => Rng(19).derive(i).bool(0.25))
    assert(hits > 2200 && hits < 2800, s"hits=$hits")
  }

  test("shuffle is a permutation") {
    val xs = (1 to 20).toVector
    val sh = Rng(23).shuffle(xs)
    assert(sh.sorted == xs)
    assert(sh != xs) // overwhelmingly likely for 20 elements
  }

  test("shuffle is deterministic") {
    assert(Rng(29).shuffle(1 to 10) == Rng(29).shuffle(1 to 10))
  }

  test("stringHash is stable and collision-light on our vocabulary") {
    val names  = ('a' to 'z').flatMap(c1 => ('a' to 'z').map(c2 => s"$c1$c2"))
    val hashes = names.map(Rng.stringHash)
    assert(hashes.distinct.size == names.size)
  }

  test("property: double deterministic in seed") {
    samples(Gen.long, 200).foreach(s => assert(Rng(s).double == Rng(s).double))
  }

  test("property: int bounds hold for arbitrary seeds") {
    samples(Gen.long, 200).foreach { s =>
      val v = Rng(s).int(100)
      assert(v >= 0 && v < 100)
    }
  }
}
