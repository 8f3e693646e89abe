package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every Spark test: one local-mode SparkSession for the whole run,
  * also used by the bench suites and the benchmark.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM. Shuffles use 64 partitions unless
  * SPARK_SHUFFLE_PARTITIONS says otherwise, far more than the small test
  * lakes need, so results that depended on partitioning would show. Broadcast
  * joins are disabled, so a join on these small inputs still runs as the
  * shuffle join it would be on a large lake.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

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
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
