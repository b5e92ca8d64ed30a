package perfbench

import java.util.concurrent.Executors
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._

import repro.core.{KoiosParams, Matching, Reference, ScoredSet, SetRecord, TokenSimilarity}
import repro.data.SemanticDataset

/** Expected top-k score lists from `Reference.topK` on the unpartitioned
  * corpus. Computed outside the timed windows on a small thread pool and
  * cached on disk, keyed by a fingerprint of the generated corpus and the
  * search parameters, so workloads sharing a corpus and seed share the cache.
  */
object Expected {

  val Tolerance = 1e-6

  def matches(expected: Array[Double], got: Array[Double]): Boolean =
    expected.length == got.length &&
      expected.indices.forall(i => math.abs(expected(i) - got(i)) <= Tolerance)

  def scores(ds: SemanticDataset, pool: IndexedSeq[SetRecord], sim: TokenSimilarity,
             params: KoiosParams, dir: java.io.File): IndexedSeq[Array[Double]] = {
    val file = new java.io.File(dir, f"${ds.profile.name}-${fingerprint(ds, params)}%016x.txt")
    val cached = read(file)
    val missing = pool.filterNot(q => cached.contains(q.id)).distinctBy(_.id)
    val computed = compute(ds, missing, sim, params)
    if (computed.nonEmpty) append(file, computed)
    val all = cached ++ computed
    pool.map(q => all(q.id))
  }

  private def compute(ds: SemanticDataset, queries: Seq[SetRecord], sim: TokenSimilarity,
                      params: KoiosParams): Map[Long, Array[Double]] = {
    if (queries.isEmpty) return Map.empty
    val vocab = ds.sets.iterator.flatMap(_.tokens).toArray.distinct
    // Query token → every vocabulary token with sim ≥ α, shared by the pool.
    val cache = new java.util.concurrent.ConcurrentHashMap[String, Array[(String, Double)]]()
    val neighbors: String => Array[(String, Double)] = q => {
      val hit = cache.get(q)
      if (hit ne null) hit
      else {
        val ns = vocab.flatMap { t => val s = sim.sim(q, t); if (s >= params.alpha) Some(t -> s) else None }
        cache.putIfAbsent(q, ns)
        ns
      }
    }
    val pool = Executors.newFixedThreadPool(Workloads.Partitions)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val fs = queries.map { q =>
        Future(q.id -> topK(ds.sets, q.tokens, neighbors, params).map(_.score).toArray)
      }
      Await.result(Future.sequence(fs), Duration.Inf).toMap
    } finally pool.shutdown()
  }

  /** `Reference.topK` over the corpus, skipping only sets that cannot reach
    * the k-th score. A set's semantic overlap is at most the sum over its
    * tokens of their best similarity to any query token, since each set token
    * is matched at most once, and at most |Q|. The exact top-k of the 4k sets with the largest
    * bounds gives a score θ no higher than the true k-th score; every set
    * whose bound is below θ scores below every true top-k set, so the
    * reference over the remaining sets returns the same scores as over all.
    */
  def topK(sets: IndexedSeq[SetRecord], query: Array[String],
           neighbors: String => Array[(String, Double)], params: KoiosParams): Seq[ScoredSet] = {
    val scoped = new QueryScopedSimilarity(query.distinct, neighbors)
    def reference(subset: IndexedSeq[SetRecord]) =
      Reference.topK(subset, query.toSeq, scoped, params.alpha, params.k)
    val bounds = sets.map(scoped.upperBound)
    val head = sets.indices.sortBy(i => -bounds(i)).take(4 * params.k).map(sets)
    val first = reference(head)
    val theta = if (first.length < params.k) 0.0 else first.last.score
    reference(sets.indices.filter(i => bounds(i) >= theta - Matching.PruneEps).map(sets))
  }

  /** Exact memo of a similarity for one query, built from `neighbors`: each
    * query token's vocabulary tokens with `sim ≥ α`, computed once by the
    * real similarity. Those pairs return their value unchanged; every other
    * pair returns 0, which `simAlpha` maps to the same 0 as the sub-α value
    * it stands for. Set tokens that are no query token's neighbour, the
    * common case, cost one hash lookup. The memo holds only for query tokens
    * as first argument, which is how `Reference` calls it.
    */
  final class QueryScopedSimilarity(query: Array[String], neighbors: String => Array[(String, Double)])
      extends TokenSimilarity {
    // Vocabulary token → (query token → their similarity, at least α).
    private val rows = new java.util.HashMap[String, java.util.HashMap[String, Double]]()
    query.foreach { q =>
      neighbors(q).foreach { case (t, s) =>
        rows.computeIfAbsent(t, _ => new java.util.HashMap[String, Double]()).put(q, s)
      }
    }
    // Vocabulary token → its best similarity to any query token.
    private val best = new java.util.HashMap[String, Double]()
    rows.forEach((t, row) => best.put(t, row.values.asScala.max))

    /** Upper bound on the semantic overlap of `set` with the query. */
    def upperBound(set: SetRecord): Double =
      math.min(query.length.toDouble, set.tokens.iterator.map(best.getOrDefault(_, 0.0)).sum)

    override def sim(a: String, b: String): Double = {
      val row = rows.get(b)
      if (row == null) 0.0 else row.getOrDefault(a, 0.0)
    }
  }

  /** Hash of everything the expected scores depend on. */
  private def fingerprint(ds: SemanticDataset, params: KoiosParams): Long = {
    var h = ds.profile.toString.hashCode.toLong * 31 + params.k
    h = h * 31 + java.lang.Double.hashCode(params.alpha)
    ds.sets.foreach { s =>
      h = h * 31 + s.id
      s.tokens.foreach(t => h = h * 31 + t.hashCode)
    }
    // Order-independent over the embedding map.
    h * 31 + ds.embeddings.iterator.map { case (t, v) =>
      t.hashCode.toLong * 1000003L ^ java.util.Arrays.hashCode(v)
    }.sum
  }

  private def read(file: java.io.File): Map[Long, Array[Double]] =
    if (!file.isFile) Map.empty
    else {
      val src = scala.io.Source.fromFile(file)
      try src.getLines().filter(_.nonEmpty).map { line =>
        val f = line.split(' ')
        f.head.toLong -> f.tail.map(_.toDouble)
      }.toMap
      finally src.close()
    }

  private def append(file: java.io.File, rows: Map[Long, Array[Double]]): Unit = {
    file.getParentFile.mkdirs()
    val w = new java.io.PrintWriter(new java.io.FileWriter(file, true))
    try rows.foreach { case (id, ss) => w.println((id.toString +: ss.map(_.toString)).mkString(" ")) }
    finally w.close()
  }
}
