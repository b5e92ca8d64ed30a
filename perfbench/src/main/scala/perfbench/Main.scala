package perfbench

import java.lang.management.ManagementFactory
import java.util.IdentityHashMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import repro.core._
import repro.data.SemanticDataset
import repro.harness.PartitionedEngines

/** Closed-loop Koios query benchmark: one client sends the next query only
  * after the previous top-k answer arrived; every query goes through
  * `PartitionedEngines.run` over [[Workloads.Partitions]] partitions.
  *
  * Usage: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
  * `--out <dir> [--smoke] [--fault throw|wrong]`. The last stdout line is a
  * JSON object with `correct`, `attempted`, `failed` and `metrics`; with
  * `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
  * per-layer ones.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        smoke: Boolean, fault: Option[String], out: java.io.File)

  def parseOpts(args: Array[String]): Opts = {
    val m = scala.collection.mutable.Map.empty[String, String]
    var smoke = false
    var i = 0
    while (i < args.length) {
      args(i) match {
        case "--smoke" => smoke = true; i += 1
        case k if k.startsWith("--") && i + 1 < args.length => m(k) = args(i + 1); i += 2
        case k => throw new IllegalArgumentException(s"unexpected argument $k")
      }
    }
    def req(k: String): String =
      m.getOrElse(k, throw new IllegalArgumentException(s"missing argument $k"))
    Opts(
      workload = req("--workload"),
      seed = req("--seed").toLong,
      seconds = req("--seconds").toDouble,
      trace = req("--trace") match {
        case "0" => false
        case "1" => true
        case v   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $v")
      },
      smoke = smoke,
      fault = m.get("--fault").map {
        case f @ ("throw" | "wrong") => f
        case f => throw new IllegalArgumentException(s"--fault must be throw or wrong, got $f")
      },
      out = new java.io.File(req("--out")))
  }

  def main(args: Array[String]): Unit = {
    val code =
      try {
        run(parseOpts(args))
        0
      } catch {
        case e: Throwable =>
          System.err.println(s"perfbench: ${e.getClass.getSimpleName}: ${e.getMessage}")
          e.printStackTrace()
          1
      }
    System.out.flush()
    System.exit(code)
  }

  private def log(s: String): Unit = System.err.println(s"[perfbench] $s")

  // ---- closed loop -------------------------------------------------------

  /** One answered (or failed) query of the closed loop. */
  final case class Sample(poolIdx: Int, latencyNs: Long, scores: Array[Double],
                          stats: SearchStats, error: Option[Throwable]) {
    /** Answered in time; only these count in latency and qps. */
    def completed: Boolean = error.isEmpty && !stats.timedOut
  }

  final case class Window(samples: IndexedSeq[Sample], elapsedNs: Long) {
    def completed: IndexedSeq[Sample] = samples.filter(_.completed)
    def qps: Double = completed.length / (elapsedNs / 1e9)
  }

  type Call = (Int, Seq[String]) => (Seq[ScoredSet], SearchStats)

  /** A deliberately broken client for the smoke test: the answer of every
    * query is replaced by an exception or by a wrong score list, so the
    * test can check that the result then reads `correct: false`.
    */
  def withFault(fault: Option[String])(call: Call): Call = fault match {
    case None => call
    case Some(f) => (i, q) => {
      val (topk, stats) = call(i, q)
      if (f == "throw") throw new IllegalStateException("injected fault")
      (topk.map(s => s.copy(score = s.score + 1.0)), stats)
    }
  }

  /** Sends pool queries in order, cycling, until `seconds` have passed and at
    * least `minSamples` answers arrived; with `wholePasses`, also until the
    * last pass over the pool is complete, so every pool query weighs the same.
    */
  def closedLoop(pool: IndexedSeq[SetRecord], seconds: Double, minSamples: Int, wholePasses: Boolean)
                (call: Call): Window = {
    val samples = new ArrayBuffer[Sample]()
    val t0 = System.nanoTime()
    val end = t0 + (seconds * 1e9).toLong
    var i = 0
    while (System.nanoTime() < end || i < minSamples || (wholePasses && i % pool.length != 0)) {
      val pi = i % pool.length
      val q = pool(pi).tokens.toSeq
      val s0 = System.nanoTime()
      val sample =
        try {
          val (topk, stats) = call(i, q)
          Sample(pi, System.nanoTime() - s0, topk.map(_.score).toArray, stats, None)
        } catch {
          case e: Exception => Sample(pi, System.nanoTime() - s0, Array.empty, SearchStats(), Some(e))
        }
      samples += sample
      i += 1
    }
    Window(samples.toIndexedSeq, System.nanoTime() - t0)
  }

  // ---- set-up ------------------------------------------------------------

  private val MB = 1024.0 * 1024.0

  def usedHeapAfterGc(): Long = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  final case class SetupRun(seconds: Double, heapMb: Double)

  /** Builds the engines `SetupWarmups` times unmeasured, so the JIT has
    * compiled the set-up code, then `reps` times measured, each between two
    * full GCs; keeps the last build and shuts the others down.
    */
  def setup(ds: SemanticDataset, seed: Long, reps: Int): (PartitionedEngines, Seq[SetupRun]) = {
    (1 to SetupWarmups).foreach(_ => new PartitionedEngines(ds, Workloads.Partitions, seed).shutdown())
    var eng: PartitionedEngines = null
    val runs = (1 to reps).map { _ =>
      if (eng != null) { eng.shutdown(); eng = null }
      val before = usedHeapAfterGc()
      val t0 = System.nanoTime()
      eng = new PartitionedEngines(ds, Workloads.Partitions, seed)
      val secs = (System.nanoTime() - t0) / 1e9
      SetupRun(secs, (usedHeapAfterGc() - before) / MB)
    }
    (eng, runs)
  }

  /** Per-layer set-up split: the `SetCollection` and
    * `BruteForceSimilarityIndex` constructors, rebuilt over the engines'
    * partitions and summed.
    */
  def setupLayers(eng: PartitionedEngines, reps: Int): (Double, Double) = {
    val runs = (1 to reps).map { _ =>
      var inv = 0L; var sim = 0L
      eng.parts.foreach { c =>
        val t0 = System.nanoTime()
        val rebuilt = new SetCollection(c.records)
        val t1 = System.nanoTime()
        new BruteForceSimilarityIndex(rebuilt.vocabulary, eng.similarity)
        val t2 = System.nanoTime()
        inv += t1 - t0; sim += t2 - t1
      }
      (inv / 1e6, sim / 1e6)
    }
    (Stats.median(runs.map(_._1)), Stats.median(runs.map(_._2)))
  }

  /** CPU time of the whole JVM, all threads, in ns. */
  def processCpuNs(): Long = ManagementFactory.getOperatingSystemMXBean match {
    case os: com.sun.management.OperatingSystemMXBean => os.getProcessCpuTime
    case _ => 0L
  }

  final case class Gc(count: Long, ms: Long) {
    def -(o: Gc): Gc = Gc(count - o.count, ms - o.ms)
  }
  def gcNow(): Gc = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    Gc(beans.map(b => math.max(0L, b.getCollectionCount)).sum,
      beans.map(b => math.max(0L, b.getCollectionTime)).sum)
  }

  // ---- the run -----------------------------------------------------------

  // Set-up takes 0.05–0.15 s; the median of 30 builds after 10 unmeasured
  // ones keeps `setup_s` steady when a few builds meet a slow moment.
  val SetupWarmups = 10
  val SetupReps = 30
  /** At least ten samples beyond the reported p90. */
  val MinSamples = 100

  def run(opts: Opts): Unit = {
    val wl = Workloads.byName(opts.workload).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${opts.workload}; known: ${Workloads.all.map(_.name).mkString(", ")}"))
    val params = wl.params
    val minSamples = if (opts.smoke) 10 else MinSamples

    val tGen = System.nanoTime()
    val ds = wl.dataset(opts.smoke)
    val pool = wl.queries(ds, opts.seed, opts.smoke)
    require(pool.nonEmpty, "empty query pool")
    log(f"${wl.name}: generated ${ds.sets.length} sets and ${pool.length} queries " +
      f"in ${(System.nanoTime() - tGen) / 1e9}%.2f s")

    val tSetup = System.nanoTime()
    val (eng, setupRuns) = setup(ds, opts.seed, SetupReps)
    val builds = setupRuns.map(_.seconds).sorted
    log(f"set-up: ${SetupWarmups + SetupReps} builds in ${(System.nanoTime() - tSetup) / 1e9}%.2f s; " +
      f"measured min ${builds.head}%.4f median ${Stats.median(builds)}%.4f max ${builds.last}%.4f s")
    try {
      val fault = withFault(opts.fault) _
      val plainCall: Call =
        fault((_, q) => { val (topk, stats, _) = eng.runKoios(q, params); (topk, stats) })

      val warm = closedLoop(pool, if (opts.smoke) 0.0 else wl.warmupSeconds, 1,
        wholePasses = false)(plainCall)
      log(f"warm-up: ${warm.samples.length} queries in ${warm.elapsedNs / 1e9}%.2f s")

      val gc0 = gcNow()
      val cpu0 = processCpuNs()
      val timed = closedLoop(pool, opts.seconds, minSamples, wholePasses = true)(plainCall)
      val cpu = processCpuNs() - cpu0
      val gc = gcNow() - gc0
      log(f"timed: ${timed.samples.length} queries in ${timed.elapsedNs / 1e9}%.2f s, " +
        f"process CPU ${cpu / 1e9}%.2f s")
      timed.samples.groupBy(_.poolIdx).toSeq.sortBy(_._1).foreach { case (pi, ss) =>
        log(f"  query ${pool(pi).id}%6d |Q|=${pool(pi).size}%4d median " +
          f"${Stats.median(ss.map(_.latencyNs / 1e6))}%9.2f ms over ${ss.length} runs")
      }

      val traced = if (!opts.trace) None else Some {
        val tracer = new Tracer
        @volatile var current = (0L, 0L)
        val partOf = new IdentityHashMap[SetCollection, Integer]()
        eng.parts.zipWithIndex.foreach { case (c, p) => partOf.put(c, p) }
        val tracedEngine = Engines.traced(params, tracer, () => current, c => partOf.get(c).intValue)
        val w = closedLoop(pool, opts.seconds, minSamples, wholePasses = true)(fault { (i, q) =>
          val trace = i + 1L
          val span = tracer.nextId()
          current = (trace, span)
          val t0 = System.nanoTime()
          val (topk, stats, _) = eng.run(q, params, tracedEngine)
          tracer.add(Span(trace, span, 0L, "query", -1, t0, System.nanoTime()))
          (topk, stats)
        })
        log(f"traced: ${w.samples.length} queries in ${w.elapsedNs / 1e9}%.2f s")
        (tracer, w)
      }

      // Correctness, outside the timed windows.
      val tRef = System.nanoTime()
      val expected = Expected.scores(ds, pool, eng.similarity, params,
        new java.io.File(opts.out, "expected"))
      log(f"reference answers ready in ${(System.nanoTime() - tRef) / 1e9}%.2f s")
      val all = warm.samples ++ timed.samples ++ traced.toSeq.flatMap(_._2.samples)
      val isWrong = (s: Sample) => s.error.isEmpty && !Expected.matches(expected(s.poolIdx), s.scores)
      val wrong = all.count(isWrong)
      val failed = all.count(s => !s.completed || isWrong(s))
      all.flatMap(_.error).headOption.foreach(e => log(s"first query error: $e"))
      val errorRate = failed.toDouble / all.length

      // Failed queries are left out of latency and qps. If none completed,
      // the run is reported incorrect and the latency is that of the failures.
      val lat = (if (timed.completed.nonEmpty) timed.completed else timed.samples).map(_.latencyNs / 1e6)
      val metrics: Seq[(String, Double, String)] = traced match {
        case None =>
          Seq(
            ("latency_p50_ms", Stats.percentile(lat, 0.5), "ms"),
            ("latency_p90_ms", Stats.percentile(lat, 0.9), "ms"),
            ("qps", timed.qps, "1/s"),
            ("setup_s", Stats.median(setupRuns.map(_.seconds)), "s"),
            ("index_heap_mb", Stats.median(setupRuns.map(_.heapMb)), "MB"))
        case Some((tracer, w)) =>
          val (invMs, simMs) = setupLayers(eng, SetupReps)
          tracer.write(new java.io.File(opts.out, s"spans-${wl.name}-${opts.seed}.csv"))
          Layers.metrics(tracer, w, timed, gc, warm) ++ Seq(
            ("setup.inverted_ms", invMs, "ms"),
            ("setup.simindex_ms", simMs, "ms"))
      }

      println(s"workload=${wl.name} seed=${opts.seed} client=closed-loop clients=1 " +
        s"partitions=${Workloads.Partitions} k=${params.k} alpha=${params.alpha} " +
        s"reducedGraphs=${params.reducedGraphs} sets=${ds.sets.length} pool=${pool.length} " +
        s"samples=${lat.length} warmup_s=${warm.elapsedNs / 1e9}")
      metrics.foreach { case (n, v, u) => println(f"$n%-36s $v%14.4f $u") }
      println(f"${"error_rate"}%-36s $errorRate%14.4f ratio ($failed of ${all.length} queries; " +
        s"$wrong wrong answers)")
      println(Json.result(failed == 0, all.length, failed, metrics))
    } finally eng.shutdown()
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1)))
  }

  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
  def ratio(a: Double, b: Double): Double = if (b == 0.0) 0.0 else a / b
}

object Json {
  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalStateException(s"non-finite metric $v")
    else v.toString

  def result(correct: Boolean, attempted: Int, failed: Int,
             metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
