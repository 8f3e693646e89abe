package repro.core

import java.util.concurrent.{Callable, Executors, TimeUnit}
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.execution.LocalTableScanExec
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.eval.Harness

class StructuredViewSpec extends SparkSpec {

  private val tuples: Seq[(String, String, String)] =
    for (d <- 0 until 30; a <- Seq("name", "date", "note")) yield (s"doc-$d", a, s"$a of $d")

  private def rows(df: org.apache.spark.sql.DataFrame): Seq[(String, String, String)] =
    df.collect().toSeq.map(r => (r.getString(0), r.getString(1), r.getString(2)))

  test("a tuple table reads back its tuples, in order, with the view schema") {
    val df = StructuredView.tuplesDf(spark, tuples)
    assert(df.columns.toSeq == Seq("doc_id", "attr", "value"))
    assert(rows(df) == tuples)
  }

  test("null values and doc_ids survive the local scan") {
    val odd = Seq(("d", "a", null), (null, "a", "v"), ("d", "b", ""))
    assert(rows(StructuredView.tuplesDf(spark, odd)) == odd)
  }

  test("collecting a tuple table, whole or restricted to some doc_ids, starts no Spark job") {
    val df  = StructuredView.tuplesDf(spark, tuples)
    val ids = Seq("doc-3", "doc-7", "doc-missing")
    def want(keep: String => Boolean) = tuples.filter(t => keep(t._1))
    assert(df.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec])
    assert(withJobCount(rows(df)) == ((tuples, 0)))
    // A `Filter` that stayed in Spark would run over the scan in a job.
    val restricted = Harness.restrict(df, ids)
    assert(restricted.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec],
      restricted.queryExecution.executedPlan.toString)
    assert(withJobCount(rows(restricted)) == ((want(ids.contains), 0)))
    // Past Spark's InSet threshold, and as a plain equality.
    val many = (0 until 20).map(i => s"doc-$i")
    assert(withJobCount(rows(Harness.restrict(df, many))) == ((want(many.contains), 0)))
    assert(withJobCount(rows(df.where(col("doc_id") === "doc-5"))) == ((want(_ == "doc-5"), 0)))
    assert(withJobCount(rows(Harness.restrict(Harness.restrict(df, many), ids))) ==
      ((want(id => many.contains(id) && ids.contains(id)), 0)))
  }

  test("filters on other columns stay in Spark and still read right") {
    val df = StructuredView.tuplesDf(spark, tuples)
    assert(rows(df.where(col("attr") === "date")) == tuples.filter(_._2 == "date"))
    assert(rows(Harness.restrict(df, Seq("doc-1", "doc-2")).where(col("value").startsWith("note"))) ==
      Seq(("doc-1", "note", "note of 1"), ("doc-2", "note", "note of 2")))
    assert(rows(df.where(col("doc_id").isin("doc-1", null))) == tuples.filter(_._1 == "doc-1"))
    assert(rows(df.where(col("doc_id") > "doc-8")) == tuples.filter(_._1 > "doc-8"))
  }

  test("an empty tuple table collects to nothing and survives a noop write") {
    val df = StructuredView.tuplesDf(spark, Nil)
    assert(df.columns.toSeq == Seq("doc_id", "attr", "value"))
    assert(df.collect().isEmpty)
    df.write.format("noop").mode("overwrite").save()
    assert(Harness.restrict(df, Seq("doc-1")).collect().isEmpty)
  }

  test("the handoff is empty after tuplesDf returns and after it throws") {
    StructuredView.tuplesDf(spark, tuples)
    assert(TupleSource.pending == 0)
    // Listed as a V1 source, the provider is not loaded as a table, so load() throws.
    val failure = withConf("spark.sql.sources.useV1SourceList" -> classOf[TupleSource].getName.toLowerCase) {
      intercept[Exception](StructuredView.tuplesDf(spark, tuples))
    }
    assert(failure != null)
    assert(TupleSource.pending == 0)
  }

  test("tables built at the same time from 4 threads each hold only their own tuples") {
    val pool = Executors.newFixedThreadPool(4)
    try {
      val tasks = (0 until 4).map { t =>
        new Callable[Boolean] {
          def call(): Boolean = (0 until 10).forall { round =>
            val mine = tuples.map { case (d, a, v) => (s"t$t-$d", a, s"$v/$round") }
            rows(StructuredView.tuplesDf(spark, mine)) == mine
          }
        }
      }
      val results = pool.invokeAll(tasks.asJava, 5, TimeUnit.MINUTES).asScala.map(_.get)
      assert(results.forall(identity))
    } finally pool.shutdownNow()
    assert(TupleSource.pending == 0)
  }
}
