package repro.tools

import scala.collection.mutable.ArrayBuffer
import repro.core.EvaporateCode
import repro.docs.{Corpora, DocGen, DocParser}
import repro.fn.ExtractorSet
import repro.llm.{Profile, SimLM}
import repro.ws.Aggregation

/** Per-document times of the driver-free kernels of a lake pass, per
  * setting: `DocGen.render`, `DocParser.read` (what the simulated LLM reads),
  * the kept-function set of full Algorithm 1 (`ExtractorSet.extract` over
  * every function Code+ keeps, planned as the `lake_scale` benchmark plans
  * it: davinci, seed 42, k = the setting's gold attributes), and the
  * simulated LLM of Evaporate-Direct (davinci, seed 42): `SimLM.openExtract`
  * (open) and `SimLM.closedExtract` of every gold attribute in one call per
  * document, as `EvaporateDirect.runClosed` calls it (closed).
  *
  * Each figure is the median of 9 timed runs over the same 1,000 documents,
  * in one JVM and one thread, in µs per document. Every kernel of every
  * setting first runs untimed until its time settles: at least 5 runs, then
  * until none of the last 3 is 3% faster than the best run before them, at
  * most 40. The timed runs then go round all kernels of all settings 9
  * times, so every run sees the same warmed JIT and a slow spell of the
  * machine costs many cells one run each, not one cell all its runs.
  *
  * {{{
  * sbt "Test/runMain repro.tools.KernelTimes"
  * }}}
  */
object KernelTimes {
  private val Docs      = 1000
  private val MinWarmup = 5
  private val MaxWarmup = 40
  private val Settled   = 3
  private val Runs      = 9
  private val Seed      = 42L

  /** Keeps every kernel's output live, so the JIT cannot drop the work. */
  private var sink = 0L

  /** µs per document of one run of `pass` over `Docs` documents. */
  private def usPerDoc(pass: () => Long): Double = {
    val t0 = System.nanoTime()
    sink += pass()
    (System.nanoTime() - t0) / 1e3 / Docs
  }

  /** Runs `pass` untimed until its time settles. */
  private def warmUp(pass: () => Long): Unit = {
    val warm = ArrayBuffer.empty[Double]
    while (warm.size < MaxWarmup &&
           (warm.size < MinWarmup || warm.takeRight(Settled).min < 0.97 * warm.dropRight(Settled).min))
      warm += usPerDoc(pass)
  }

  def main(args: Array[String]): Unit = {
    // Per setting: its kernels in column order, and its kept-function count.
    val rows = Corpora.all.map { s =>
      val docs  = (0L until Docs.toLong).map(DocGen.render(s, _, Seed))
      val texts = docs.map(_.text)
      val lm    = SimLM(Profile.davinci, s, Seed)
      val plan  = EvaporateCode.plan(s, Profile.davinci, Seed, s.goldAttrs.size)
      val kept  = plan.attrs.flatMap(_.keep(Aggregation.WsFull)).distinct
      val set   = new ExtractorSet(kept)
      val kernels: Seq[() => Long] = Seq(
        () => (0L until Docs.toLong).map(DocGen.render(s, _, Seed).text.length.toLong).sum,
        () => texts.map(t => DocParser.read(s, t).size.toLong).sum,
        () => texts.map(t => set.extract(t).size.toLong).sum,
        () => docs.map(d => lm.openExtract(d.id, d.text).tokens).sum,
        () => docs.map(d => lm.closedExtract(d.id, d.text, s.goldAttrs).map(_._2).sum).sum)
      (s, kernels, kept.size)
    }
    rows.foreach(_._2.foreach(warmUp))
    val runs = Seq.fill(Runs)(rows.map(_._2.map(usPerDoc)))

    println(f"${"setting"}%-34s ${"render"}%9s ${"parse"}%9s ${"kept set"}%9s ${"fns"}%4s " +
      f"${"open"}%9s ${"closed"}%9s  (us per document)")
    for (((s, _, fns), i) <- rows.zipWithIndex) {
      val Seq(render, parse, keptUs, open, closed) =
        (0 until 5).map(k => runs.map(_(i)(k)).sorted.apply(Runs / 2))
      println(f"${s.name}%-34s $render%9.1f $parse%9.1f $keptUs%9.1f $fns%4d $open%9.1f $closed%9.1f")
    }
    if (sink == 42L) println() // reads the sink
  }
}
