package ravenbench

import java.io.{File, PrintWriter}
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** One timed interval at a layer boundary. `parent` is the id of the
  * enclosing span (-1 for an op's root); all spans of one op share `opId`.
  */
final case class Span(id: Int, parent: Int, opId: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Spans recorded around the benchmark's calls into the program. They stay
  * in memory and are written out when the run ends. A disabled tracer runs
  * the body and records nothing.
  */
final class Tracer(val enabled: Boolean) {
  val spans = ArrayBuffer[Span]()
  private var open = List.empty[Int]
  private var nextId = 0
  private var opId = -1
  /** Offset from wall-clock milliseconds (Spark's event times) to `System.nanoTime`. */
  private val wallToNano = System.nanoTime() - System.currentTimeMillis() * 1000000L

  def beginOp(id: Int): Unit = opId = id

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, opId, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Record an interval Spark measured (tracker phase, job) for the current
    * op, under the innermost recorded span of that op that contains its midpoint.
    */
  def recordWall(name: String, startMs: Long, endMs: Long): Unit = if (enabled) {
    val s = startMs * 1000000L + wallToNano
    val e = math.max(s, endMs * 1000000L + wallToNano)
    val mid = (s + e) / 2
    val parent = spans.iterator
      .filter(p => p.opId == opId && p.startNs <= mid && mid <= p.endNs)
      .maxByOption(_.startNs).map(_.id).getOrElse(-1)
    spans += Span(nextId, parent, opId, name, s, e)
    nextId += 1
  }

  /** Per span name: (spans, total ns, self ns). Self time is a span's
    * duration minus the part of it covered by its child spans.
    */
  def selfTimes: Seq[(String, Int, Long, Long)] = {
    val children = spans.groupBy(_.parent)
    val self = spans.map { s =>
      val covered = Stats.unionLength(children.getOrElse(s.id, ArrayBuffer.empty[Span]).toSeq.map(c =>
        (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs))))
      s.name -> (s.durNs, s.durNs - covered)
    }
    self.toSeq.groupBy(_._1).toSeq.map { case (name, xs) =>
      (name, xs.size, xs.map(_._2._1).sum, xs.map(_._2._2).sum)
    }.sortBy(-_._3)
  }

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file)
    try spans.foreach { s =>
      w.println(s"""{"id":${s.id},"parent":${s.parent},"op":${s.opId},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    }
    finally w.close()
  }
}

/** Task and job counters from a SparkListener the benchmark registers:
  * executor CPU, GC time, shuffle bytes written, and job intervals.
  */
final class TaskCounters extends SparkListener {
  val cpuNs = new AtomicLong
  val gcMs = new AtomicLong
  val shuffleWriteBytes = new AtomicLong
  val tasks = new AtomicLong
  private val jobStart = new java.util.concurrent.ConcurrentHashMap[Int, Long]()
  val jobs = new java.util.concurrent.ConcurrentLinkedQueue[(Long, Long)]()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      cpuNs.addAndGet(m.executorCpuTime)
      gcMs.addAndGet(m.jvmGCTime)
      shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = jobStart.put(e.jobId, e.time)

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobStart.remove(e.jobId)).foreach(s => jobs.add((s.longValue, e.time)))

  /** Counter values; `takeJobs` drains the job intervals seen so far. */
  def snapshot: (Long, Long, Long) = (cpuNs.get, gcMs.get, shuffleWriteBytes.get)

  def takeJobs(): Seq[(Long, Long)] = {
    val out = ArrayBuffer[(Long, Long)]()
    var j = jobs.poll()
    while (j != null) { out += j; j = jobs.poll() }
    out.toSeq
  }
}
