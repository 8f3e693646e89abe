package perfbench

import java.time.Instant
import scala.collection.mutable
import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._

/** A span recorded by the benchmark around a call into one layer.
  * Times are epoch milliseconds (microsecond precision) so they share a clock
  * with Spark's job events.
  */
final case class Span(id: Int, parent: Int, name: String, label: String,
                      startMs: Double, endMs: Double) {
  def durMs: Double = endMs - startMs
}

/** A Spark job as seen by the listener, attributed to the span that was open
  * on the submitting thread.
  */
final case class JobSpan(jobId: Int, spanId: Int, startMs: Double, endMs: Double,
                         tasks: Int, executorRunMs: Long, resultBytes: Long,
                         shuffleWriteBytes: Long) {
  def durMs: Double = endMs - startMs
}

/** In-memory tracer: spans at the layer boundaries the benchmark calls into,
  * and Spark jobs from a SparkListener. Nothing is written until the run ends.
  *
  * Jobs are attributed through a thread-local Spark property set while a span
  * is open, so attribution does not depend on event timing.
  */
final class Tracer(sc: SparkContext) {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var nextId = 1

  private final class JobAcc(val jobId: Int, val spanId: Int, val startMs: Double) {
    var endMs: Double = startMs
    var tasks = 0
    var runMs = 0L
    var resultBytes = 0L
    var shuffleBytes = 0L
  }
  private val jobs       = mutable.LinkedHashMap.empty[Int, JobAcc]
  private val stageToJob = mutable.Map.empty[Int, Int]

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = Tracer.this.synchronized {
      val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanProperty)))
        .map(_.toInt).getOrElse(0)
      jobs(e.jobId) = new JobAcc(e.jobId, span, e.time.toDouble)
      e.stageIds.foreach(s => stageToJob(s) = e.jobId)
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = Tracer.this.synchronized {
      jobs.get(e.jobId).foreach(_.endMs = e.time.toDouble)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = Tracer.this.synchronized {
      for (j <- stageToJob.get(e.stageId); acc <- jobs.get(j)) {
        acc.tasks += 1
        Option(e.taskMetrics).foreach { m =>
          acc.runMs += m.executorRunTime
          acc.resultBytes += m.resultSize
          acc.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        }
      }
    }
  }

  /** Starts listening once every event posted so far has been delivered, so
    * jobs that ran before are not seen.
    */
  def start(): Unit = {
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
  }

  /** Stops listening once every event posted so far has been delivered. */
  def stop(): Unit = {
    ListenerBusDrain(sc)
    sc.removeSparkListener(listener)
  }

  /** Runs `body` inside a span; Spark jobs it submits become the span's children. */
  def span[T](name: String, label: String, parent: Int)(body: Int => T): T = {
    val id = synchronized { val i = nextId; nextId += 1; i }
    val prev = sc.getLocalProperty(SpanProperty)
    sc.setLocalProperty(SpanProperty, id.toString)
    val t0 = nowMs()
    try body(id)
    finally {
      val t1 = nowMs()
      sc.setLocalProperty(SpanProperty, prev)
      synchronized { spans += Span(id, parent, name, label, t0, t1) }
    }
  }

  def allSpans: Seq[Span] = synchronized(spans.toSeq)

  def jobSpans: Seq[JobSpan] = synchronized {
    jobs.values.map(a => JobSpan(a.jobId, a.spanId, a.startMs, a.endMs, a.tasks, a.runMs,
      a.resultBytes, a.shuffleBytes)).toSeq
  }
}

object Tracer {
  val SpanProperty = "perfbench.span"

  def nowMs(): Double = {
    val i = Instant.now()
    i.getEpochSecond * 1000.0 + i.getNano / 1e6
  }

  /** Self time: the span's duration minus the part of its interval that its
    * children cover.
    */
  def selfMs(span: Span, children: Seq[(Double, Double)]): Double = {
    val clipped = children
      .map { case (s, e) => (math.max(s, span.startMs), math.min(e, span.endMs)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var covered = 0.0
    var curS = Double.NaN
    var curE = Double.NaN
    clipped.foreach { case (s, e) =>
      if (curS.isNaN || s > curE) {
        if (!curS.isNaN) covered += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (!curS.isNaN) covered += curE - curS
    span.durMs - covered
  }
}
