package perfbench

import scala.util.Random

import repro.core.{KoiosParams, SetRecord}
import repro.data.{DatasetProfile, SemanticData, SemanticDataset}
import repro.harness.BenchSuite

/** One benchmark workload: the corpus profile it generates, the search
  * parameters, how it samples its query pool and how long it warms up.
  * The corpus is the profile's own; the partition shuffle and the query pool
  * derive from the run's seed. A corpus generated from the seed would move
  * qps by up to a quarter between seeds (measured: WDC-lite 2.46–3.27,
  * Twitter-lite 49–66), because much of the work hinges on the embedding
  * draws of a few hot concepts.
  */
final case class Workload(
    name: String,
    profile: DatasetProfile,
    params: KoiosParams,
    poolSize: Int,
    warmupSeconds: Double,
    sample: (SemanticDataset, Int, Random) => IndexedSeq[SetRecord]) {

  /** Only this workload's corpus is generated. */
  def dataset(smoke: Boolean): SemanticDataset =
    SemanticData.generate(if (smoke) SemanticData.tinyProfile else profile)

  def queries(ds: SemanticDataset, seed: Long, smoke: Boolean): IndexedSeq[SetRecord] =
    sample(ds, if (smoke) math.min(poolSize, 6) else poolSize, new Random(seed * 1000003L + 17L))
}

object Workloads {

  /** k = 10, α = 0.8, 20 s timeout, as in the table benches. */
  val Params: KoiosParams = BenchSuite.Params
  val Partitions = 4

  /** Systematic sample of `n` sets: the sets sorted by (size, id) are cut
    * into `n` equal slices and one set is taken from each at the same seeded
    * offset. Every set has the same chance of being drawn, as in a uniform
    * sample, but the pool's size profile (and so its cost) barely moves
    * between seeds.
    */
  private def systematic(sets: IndexedSeq[SetRecord], n: Int, rng: Random): IndexedSeq[SetRecord] = {
    val sorted = sets.sortBy(s => (s.size, s.id))
    if (sorted.length <= n) sorted
    else {
      val step = sorted.length.toDouble / n
      val offset = rng.nextDouble()
      (0 until n).map(j => sorted(((j + offset) * step).toInt))
    }
  }

  /** Cardinality-stratified pool (the paper's WDC protocol): `n` queries spread
    * evenly over [[BenchSuite.WdcIntervals]], interleaved so any prefix of the
    * pool covers every interval.
    */
  private def stratified(ds: SemanticDataset, n: Int, rng: Random): IndexedSeq[SetRecord] = {
    val perInterval = math.max(1, n / BenchSuite.WdcIntervals.length)
    val strata = BenchSuite.WdcIntervals.map { case (lo, hi) =>
      systematic(ds.sets.filter(s => s.size >= lo && s.size < hi), perInterval, rng)
    }
    (0 until perInterval).flatMap(i => strata.flatMap(_.lift(i)))
  }

  /** Uniform pool over the whole corpus, in seeded order. */
  private def uniform(ds: SemanticDataset, n: Int, rng: Random): IndexedSeq[SetRecord] =
    rng.shuffle(systematic(ds.sets, n, rng))

  // Warm-up is untimed and lasts until qps stops drifting while the JIT
  // settles: wdc-reduced timed 40–42 s per 100 queries after 8 s of warm-up
  // and 31–36 s after 10–20 s; twitter-short gave 33–50 qps after 8 s and
  // 51–54 after 20 s.
  // The wdc-reduced pool holds 100 queries, each timed once: query costs run
  // from 30 ms to over 1 s, so with few distinct queries the median is the
  // cost of whichever one sits in the middle and jumps between seeds.
  val all: Seq[Workload] = Seq(
    Workload("wdc-reduced", SemanticData.wdcLite,
      Params.copy(reducedGraphs = true), poolSize = 100,
      warmupSeconds = 12, stratified),
    Workload("twitter-short", SemanticData.twitterLite,
      Params, poolSize = 64,
      warmupSeconds = 20, uniform))

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
