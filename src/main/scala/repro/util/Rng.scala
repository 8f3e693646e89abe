package repro.util

/** Splittable, stateless deterministic RNG: a draw is a pure function of
  * the seed.
  *
  * Every random decision in the reproduction (document rendering, simulated
  * LLM noise, function-synthesis outcomes) flows through an `Rng` derived
  * from a chain of string/long keys, so the same seed reproduces every
  * number bit-for-bit — including inside Spark UDFs running on executor
  * threads, where shared mutable `java.util.Random` state would be racy and
  * partition-order dependent.
  *
  * `derive(parts: Any*)` boxes its arguments into a varargs sequence; loops
  * that draw once per index (a paragraph's words, a shuffle's swaps) use
  * `indexed`, which folds the key once and boxes nothing per draw.
  */
final case class Rng(seed: Long) {

  /** Derive a child generator keyed by `parts` (stable across JVMs: string
    * hashCode is specified by the JLS, and we only ever pass strings, longs
    * and ints).
    */
  def derive(parts: Any*): Rng = {
    var acc = seed ^ Rng.Salt
    parts.foreach { p =>
      val h: Long = p match {
        case s: String => Rng.stringHash(s)
        case l: Long   => l
        case i: Int    => i.toLong
        case d: Double => java.lang.Double.doubleToLongBits(d)
        case other     => Rng.stringHash(other.toString)
      }
      acc = Rng.mix(acc ^ h)
    }
    Rng(Rng.mix(acc))
  }

  /** `derive(key, i)` for every index `i`, with `key` folded once:
    * `indexed(key)(i) == derive(key, i)` bit for bit.
    */
  def indexed(key: String): Rng.Indexed =
    new Rng.Indexed(Rng.mix(seed ^ Rng.Salt ^ Rng.stringHash(key)))

  /** Uniform double in [0, 1). */
  def double: Double = {
    val bits = Rng.mix(seed) >>> 11 // 53 random bits
    bits.toDouble / (1L << 53).toDouble
  }

  /** Uniform int in [0, n). */
  def int(n: Int): Int = {
    require(n > 0, s"int($n)")
    ((Rng.mix(seed) >>> 1) % n).toInt // the dividend is non-negative, so this is in [0, n)
  }

  /** Uniform long in [lo, hi]. */
  def longBetween(lo: Long, hi: Long): Long = {
    require(hi >= lo)
    lo + ((Rng.mix(seed) >>> 1) % (hi - lo + 1))
  }

  /** Pick uniformly from a non-empty sequence. */
  def pick[T](xs: Seq[T]): T = xs(int(xs.size))

  /** Weighted pick; weights need not be normalized. */
  def pickWeighted[T](xs: Seq[(T, Double)]): T = {
    require(xs.nonEmpty)
    val total = xs.map(_._2).sum
    var r     = double * total
    xs.foreach { case (t, w) => if (r < w) return t else r -= w }
    xs.last._1
  }

  /** Bernoulli draw. */
  def bool(p: Double): Boolean = double < p

  /** Deterministic shuffle (Fisher–Yates over derived draws). */
  def shuffle[T](xs: Seq[T]): Seq[T] = {
    val arr  = xs.toArray[Any]
    val draw = indexed("shuffle")
    var i    = arr.length - 1
    while (i > 0) {
      val j   = draw(i).int(i + 1)
      val tmp = arr(i); arr(i) = arr(j); arr(j) = tmp
      i -= 1
    }
    arr.toSeq.map(_.asInstanceOf[T])
  }
}

object Rng {

  /** XORed into the seed before `derive` folds in its keys. */
  private val Salt = 0x632be59bd9b4e019L

  /** The children `derive(key, i)` of one parent and key (see `Rng.indexed`). */
  final class Indexed private[Rng] (folded: Long) {
    def apply(i: Long): Rng = Rng(mix(mix(folded ^ i)))
  }

  /** SplitMix64 finalizer — good avalanche, cheap, stable. */
  def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** 64-bit FNV-1a over UTF-16 code units — stable string hash independent
    * of `String.hashCode` implementation details.
    */
  def stringHash(s: String): Long = {
    var h = 0xcbf29ce484222325L
    var i = 0
    while (i < s.length) {
      h ^= s.charAt(i).toLong
      h *= 0x100000001b3L
      i += 1
    }
    h
  }
}
