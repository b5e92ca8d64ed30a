package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import repro.core.{KoiosEngine, KoiosParams, SearchResult, SearchStats, SetCollection, SimilarityIndex}

/** One recorded interval. Spans of one query share `trace`; `parent` is the
  * id of the span that caused this one (0 for the query span).
  */
final case class Span(trace: Long, id: Long, parent: Long, name: String, partition: Int,
                      startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** What one partition did for one query: its engine stats and the
  * similarity-index probes seen by the decorator. `wallNs` is the wall time
  * of `KoiosEngine.search`; `busyNs` and `probeNs` are CPU time of the
  * partition's thread, so time the thread spent descheduled is not counted.
  */
final case class PartitionRecord(trace: Long, partition: Int, stats: SearchStats,
                                 wallNs: Long, busyNs: Long, probeNs: Long, probes: Int,
                                 pairs: Long, tokensScored: Long)

object CpuClock {
  private val threads = ManagementFactory.getThreadMXBean
  require(threads.isCurrentThreadCpuTimeSupported, "thread CPU time is not supported by this JVM")
  threads.setThreadCpuTimeEnabled(true)

  /** CPU time of the calling thread, in ns. */
  def now(): Long = threads.getCurrentThreadCpuTime
}

/** In-memory span store. Each partition task buffers its spans locally and
  * hands them over once per query; spans are written out after the run.
  */
final class Tracer {
  private val ids = new AtomicLong(0L)
  private val spans = new ConcurrentLinkedQueue[Span]()
  private val partitions = new ConcurrentLinkedQueue[PartitionRecord]()

  def nextId(): Long = ids.incrementAndGet()
  def add(s: Span): Unit = spans.add(s)
  def addAll(ss: Iterable[Span]): Unit = ss.foreach(spans.add)
  def addPartition(r: PartitionRecord): Unit = partitions.add(r)

  def allSpans: Seq[Span] = spans.asScala.toSeq
  def partitionRecords: Seq[PartitionRecord] = partitions.asScala.toSeq

  def write(file: java.io.File): Unit = {
    Option(file.getParentFile).foreach(_.mkdirs())
    val w = new java.io.PrintWriter(new java.io.BufferedWriter(new java.io.FileWriter(file)))
    try {
      w.println("trace,id,parent,name,partition,start_ns,end_ns")
      spans.asScala.toSeq.sortBy(s => (s.trace, s.startNs, s.id)).foreach { s =>
        w.println(s"${s.trace},${s.id},${s.parent},${s.name},${s.partition},${s.startNs},${s.endNs}")
      }
    } finally w.close()
  }
}

/** Decorator over the index a partition engine receives: forwards every
  * `neighbors` call unchanged and records it as a `simindex.neighbors` span
  * with its result size, and sums its CPU time.
  */
final class TracedIndex(underlying: SimilarityIndex, vocabSize: Int, trace: Long, parent: Long,
                        partition: Int, tracer: Tracer, buf: ArrayBuffer[Span])
    extends SimilarityIndex {
  var probes = 0
  var pairs = 0L
  var probeNs = 0L

  override def neighbors(q: String, alpha: Double): Array[(String, Double)] = {
    val c0 = CpuClock.now()
    val t0 = System.nanoTime()
    val out = underlying.neighbors(q, alpha)
    val t1 = System.nanoTime()
    probeNs += CpuClock.now() - c0
    probes += 1
    pairs += out.length
    buf += Span(trace, tracer.nextId(), parent, "simindex.neighbors", partition, t0, t1)
    out
  }

  def tokensScored: Long = probes.toLong * vocabSize
}

/** The benchmark's traced `engineOf` closure for `PartitionedEngines.run`. */
object Engines {

  /** Traced closure: a `partition` span around `KoiosEngine.search`, `refine`
    * and `post` children rebuilt from the engine's phase timers, and the
    * probes of a [[TracedIndex]]. `currentQuery` yields the (trace id, query
    * span id) of the query in flight; `partitionOf` maps a partition's
    * collection to its index.
    */
  def traced(params: KoiosParams, tracer: Tracer, currentQuery: () => (Long, Long),
             partitionOf: SetCollection => Int)
      : (SetCollection, SimilarityIndex) => Seq[String] => SearchResult =
    (c, idx) => q => {
      val (trace, querySpan) = currentQuery()
      val p = partitionOf(c)
      val buf = new ArrayBuffer[Span](64)
      val partSpan = tracer.nextId()
      val refineSpan = tracer.nextId()
      val probe = new TracedIndex(idx, c.vocabulary.length, trace, refineSpan, p, tracer, buf)
      val c0 = CpuClock.now()
      val t0 = System.nanoTime()
      val res = new KoiosEngine(c, probe).search(q, params)
      val t1 = System.nanoTime()
      val busyNs = CpuClock.now() - c0
      val refineEnd = t0 + (res.stats.refinementMs * 1e6).toLong
      buf += Span(trace, partSpan, querySpan, "partition", p, t0, t1)
      buf += Span(trace, refineSpan, partSpan, "refine", p, t0, refineEnd)
      buf += Span(trace, tracer.nextId(), partSpan, "post", p, refineEnd,
        refineEnd + (res.stats.postprocMs * 1e6).toLong)
      tracer.addAll(buf)
      tracer.addPartition(PartitionRecord(trace, p, res.stats, t1 - t0, busyNs, probe.probeNs,
        probe.probes, probe.pairs, probe.tokensScored))
      res
    }
}
