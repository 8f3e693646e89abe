package repro

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
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

  /** Runs `body` and returns its result with the number of Spark jobs it
    * started. The listener bus delivers events in order, so a marker job
    * run before `body` skips the events of earlier jobs, and one run after
    * it waits until every job of `body` has been seen.
    */
  def withJobCount[T](body: => T): (T, Int) = {
    val sc      = spark.sparkContext
    val started = new AtomicInteger
    // Each marker job's name, with the jobs started since the last marker.
    val markers = new LinkedBlockingQueue[(String, Int)]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(SparkSpec.MarkerKey))) match {
          case Some(m) => markers.put((m, started.getAndSet(0)))
          case None    => started.incrementAndGet()
        }
    }
    def marker(name: String): Int = {
      sc.setLocalProperty(SparkSpec.MarkerKey, name)
      try sc.parallelize(Seq(1), 1).count()
      finally sc.setLocalProperty(SparkSpec.MarkerKey, null)
      val seen = markers.poll(60, TimeUnit.SECONDS)
      assert(seen != null && seen._1 == name, s"listener never saw the $name marker job")
      seen._2
    }
    sc.addSparkListener(listener)
    try {
      marker("before")
      val result = body
      (result, marker("after"))
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  /** The local property that marks `withJobCount`'s marker jobs. */
  private val MarkerKey = "repro.test.jobCountMarker"

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
