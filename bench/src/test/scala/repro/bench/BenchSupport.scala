package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}
import repro.SparkSpec
import repro.eval.Tables

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

object BenchSupport {

  /** Table 1's rows, computed once per bench JVM on the shared session:
    * `Table1Bench` records them and `Table6Bench` compares Table 6 with them.
    */
  lazy val table1: Seq[Tables.T1Row] = Tables.table1(SparkSpec.shared)
}
