package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}
import repro.SparkSpec

/** Shared plumbing for the per-table bench suites: each suite computes its
  * table through `repro.eval.Tables`, prints the paper-vs-measured render,
  * writes it under the checkout's `bench_results/` (the `bench.results`
  * property that build.sbt sets), and asserts the paper's *shape*
  * claims (orderings, regimes) — absolute numbers differ by construction
  * (synthetic corpora, simulated LLM) and are documented in EXPERIMENTS.md.
  */
trait BenchSupport extends SparkSpec {

  def record(name: String, rendered: String): Unit = {
    println(rendered)
    val dir = Paths.get(sys.props.getOrElse("bench.results",
      sys.error("bench.results is unset: run the bench suites with `sbt bench/test`")))
    Files.createDirectories(dir)
    Files.write(dir.resolve(s"$name.txt"), rendered.getBytes("UTF-8"),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }
}
