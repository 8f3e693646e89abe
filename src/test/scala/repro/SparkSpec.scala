package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Harness

/** Base for every Spark test: one SparkSession for the whole run, also used
  * by the bench suites and the benchmark. It is the program's own session,
  * `Harness.session("repro")`; the driver heap is set via
  * ``Test / javaOptions`` in build.sbt from SPARK_DRIVER_MEM.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Runs `body` with the given SQL confs set, then restores their old values. */
  def withConf[T](settings: (String, String)*)(body: => T): T = {
    val saved = settings.map { case (k, _) => k -> spark.conf.getOption(k) }
    settings.foreach { case (k, v) => spark.conf.set(k, v) }
    try body
    finally saved.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None)    => spark.conf.unset(k)
    }
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = Harness.session("repro")
    // One line in test output that shows the heap and master a run got.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
