package repro.tools

import repro.core.EvaporateCode
import repro.docs.{Corpora, DocGen, DocParser}
import repro.fn.ExtractorSet
import repro.llm.{Profile, SimLM}
import repro.ws.Aggregation

/** Per-document times of the driver-free kernels of a lake pass, per
  * setting: `DocGen.render`, `DocParser.parse` (what the simulated LLM reads),
  * the kept-function set of full Algorithm 1 (`ExtractorSet.extract` over
  * every function Code+ keeps, planned as the `lake_scale` benchmark plans
  * it: davinci, seed 42, k = the setting's gold attributes), and the
  * simulated LLM of Evaporate-Direct (davinci, seed 42): `SimLM.openExtract`
  * (open) and `SimLM.closedExtract` over the gold attributes (closed).
  *
  * Each figure is the median of 9 timed runs over the same 1,000 documents,
  * after 3 untimed runs, in one JVM and one thread, in µs per document.
  *
  * {{{
  * sbt "Test/runMain repro.tools.KernelTimes"
  * }}}
  */
object KernelTimes {
  private val Docs   = 1000
  private val Warmup = 3
  private val Runs   = 9
  private val Seed   = 42L

  /** Keeps every kernel's output live, so the JIT cannot drop the work. */
  private var sink = 0L

  /** Median µs per document of `runs` runs of `pass` over `Docs` documents. */
  private def usPerDoc(pass: () => Long): Double = {
    (0 until Warmup).foreach(_ => sink += pass())
    val times = (0 until Runs).map { _ =>
      val t0 = System.nanoTime()
      sink += pass()
      (System.nanoTime() - t0) / 1e3 / Docs
    }
    times.sorted.apply(Runs / 2)
  }

  def main(args: Array[String]): Unit = {
    println(f"${"setting"}%-34s ${"render"}%9s ${"parse"}%9s ${"kept set"}%9s ${"fns"}%4s " +
      f"${"open"}%9s ${"closed"}%9s  (us per document)")
    for (s <- Corpora.all) {
      val docs  = (0L until Docs.toLong).map(DocGen.render(s, _, Seed))
      val texts = docs.map(_.text)
      val lm    = SimLM(Profile.davinci, s, Seed)
      val plan  = EvaporateCode.plan(s, Profile.davinci, Seed, s.goldAttrs.size)
      val kept  = plan.attrs.flatMap(_.keep(Aggregation.WsFull)).distinct
      val set   = new ExtractorSet(kept)

      val render = usPerDoc(() => (0L until Docs.toLong).map(DocGen.render(s, _, Seed).text.length.toLong).sum)
      val parse  = usPerDoc(() => texts.map(t => DocParser.parse(s, t).size.toLong).sum)
      val keptUs = usPerDoc(() => texts.map(t => set.extract(t).size.toLong).sum)
      val open   = usPerDoc(() => docs.map(d => lm.openExtract(d.id, d.text).tokens).sum)
      val closed = usPerDoc(() => docs.map(d => s.goldAttrs.map(a => lm.closedExtract(d.id, d.text, a)._2).sum).sum)
      println(f"${s.name}%-34s $render%9.1f $parse%9.1f $keptUs%9.1f ${kept.size}%4d $open%9.1f $closed%9.1f")
    }
    if (sink == 42L) println() // reads the sink
  }
}
