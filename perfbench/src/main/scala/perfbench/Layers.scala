package perfbench

/** Per-layer metrics of the traced window. Per query, counts and busy times
  * are summed over partitions. Busy and probe times are CPU time; fan-out is
  * wall time, and refinement and post-processing come from the engine's own
  * wall-clock phase timers. Times are averaged over every traced query;
  * counts are averaged over the query pool, one answer per pool query, so
  * they repeat exactly for the same seed.
  */
object Layers {

  private final case class PerQuery(wallMs: Double, partWallMs: Seq[Double], partMs: Seq[Double],
                                    probeMs: Double, refineMs: Double, postMs: Double)

  def metrics(tracer: Tracer, traced: Main.Window, untraced: Main.Window, gc: Main.Gc,
              warm: Main.Window): Seq[(String, Double, String)] = {
    val parts = tracer.partitionRecords.groupBy(_.trace)
    val wall = tracer.allSpans.iterator.filter(_.name == "query").map(s => s.trace -> s.ms).toMap
    // Trace id of sample i is i + 1 (see Main); failed queries have no record.
    val answered = traced.samples.indices.map(_ + 1L).filter(t => parts.get(t).exists(_.length == Workloads.Partitions))

    val perQuery = answered.map { t =>
      val ps = parts(t)
      val probeMs = ps.map(_.probeNs).sum / 1e6
      PerQuery(wall(t), ps.map(_.wallNs / 1e6), ps.map(_.busyNs / 1e6), probeMs,
        ps.map(_.stats.refinementMs).sum - probeMs, ps.map(_.stats.postprocMs).sum)
    }
    def avg(f: PerQuery => Double): Double = Stats.mean(perQuery.map(f))
    val busyMs = avg(_.partMs.sum)
    val probeMs = avg(_.probeMs)
    val postMs = avg(_.postMs)

    // First answer of each pool query.
    val firstOfPool = answered.groupBy(t => traced.samples((t - 1).toInt).poolIdx).values.map(_.min).toSeq
    val pool = firstOfPool.map(parts)
    def count(f: PartitionRecord => Double): Double = Stats.mean(pool.map(_.map(f).sum))
    val candidates = count(_.stats.candidates)
    val iub = count(_.stats.iubPruned)
    val survivors = count(_.stats.survivors)
    val emEarly = count(_.stats.emEarlyTerminated)
    val emComputed = count(_.stats.emComputed)
    val finalize = count(_.stats.finalizeEms)
    val pairs = count(_.pairs.toDouble)
    val n = untraced.samples.length.toDouble

    Seq(
      ("partitioned.fanout_ms", avg(q => q.wallMs - q.partWallMs.max), "ms"),
      ("partitioned.skew", avg(q => Stats.ratio(q.partMs.max, Stats.mean(q.partMs))), "ratio"),
      ("partitioned.busy_ms", busyMs, "ms"),
      ("partitioned.query_mem_est_mb", count(_.stats.memBytes.toDouble) / (1024.0 * 1024.0), "MB"),
      ("simindex.probe_ms", probeMs, "ms"),
      ("simindex.probes", count(_.probes.toDouble), "count"),
      ("simindex.pairs", pairs, "count"),
      ("simindex.hit_ratio", Stats.ratio(pairs, count(_.tokensScored.toDouble)), "ratio"),
      ("simindex.share", Stats.ratio(probeMs, busyMs), "ratio"),
      ("refinement.ms", avg(_.refineMs), "ms"),
      ("refinement.stream_tuples", count(_.stats.streamTuples.toDouble), "count"),
      ("refinement.candidates", candidates, "count"),
      ("refinement.iub_pruned", iub, "count"),
      ("refinement.survivors", survivors, "count"),
      ("refinement.prune_ratio", Stats.ratio(iub, candidates), "ratio"),
      ("postprocessing.ms", postMs, "ms"),
      ("postprocessing.no_em", count(_.stats.noEm), "count"),
      ("postprocessing.em_early", emEarly, "count"),
      ("postprocessing.em_computed", emComputed, "count"),
      ("postprocessing.finalize_ems", finalize, "count"),
      ("postprocessing.em_per_survivor", Stats.ratio(emEarly + emComputed + finalize, survivors), "ratio"),
      ("postprocessing.share", Stats.ratio(postMs, busyMs), "ratio"),
      ("jvm.gc_ms", gc.ms / n, "ms/query"),
      ("jvm.gc_count", gc.count / n, "1/query"),
      ("trace.qps", traced.qps, "1/s"),
      ("trace.untraced_qps", untraced.qps, "1/s"),
      ("trace.overhead", untraced.qps / traced.qps - 1.0, "ratio"),
      ("warmup.s", warm.elapsedNs / 1e9, "s"),
      ("warmup.queries", warm.samples.length.toDouble, "count"))
  }
}
