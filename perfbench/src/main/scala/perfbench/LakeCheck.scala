package perfbench

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.docs.{Corpora, DocLake}
import repro.eval.Harness

/** Checks that the benchmark's lakes are the program's own at the paper's seed.
  *
  * The workloads build their lakes with [[Lakes]] (and `PaperTables` caches
  * them as `Harness.lake` does), so a change to `DocLake` or `Harness.lake`
  * would not reach the measured path. At seed 42 the digests of
  * `Lakes.documents`/`Lakes.gold` must equal those of `DocLake.documents`/
  * `DocLake.gold` and of `Harness.lake`, for every setting a workload uses.
  * Prints one line per setting and exits non-zero on a mismatch.
  */
object LakeCheck {

  val Docs = 150

  private def digest(df: DataFrame): String =
    Check.digest(df.collect().toSeq.map(r => (r.getString(0), r.getString(1),
      if (r.length > 2) r.getString(2) else "")))

  def main(argv: Array[String]): Unit = {
    val spark = SparkSpec.shared
    val seed  = Main.DefaultSeed
    val bad = try {
      Seq(Corpora.fda, Corpora.movieSites.head, Corpora.nba, Corpora.enron).filter { s =>
        val (hDocs, hGold) = Harness.lake(spark, s, Docs, seed)
        val docs = Seq(Lakes.documents(spark, s, Docs, seed), DocLake.documents(spark, s, Docs, seed), hDocs)
          .map(digest).distinct
        val gold = Seq(Lakes.gold(spark, s, Docs, seed), DocLake.gold(spark, s, Docs, seed), hGold)
          .map(digest).distinct
        hDocs.unpersist(); hGold.unpersist()
        val ok = docs.size == 1 && gold.size == 1
        println(s"${s.name}: documents ${docs.mkString(" ")}, gold ${gold.mkString(" ")}" +
          (if (ok) "" else " MISMATCH"))
        !ok
      }
    } finally spark.stop()
    sys.exit(if (bad.isEmpty) 0 else 1)
  }
}
