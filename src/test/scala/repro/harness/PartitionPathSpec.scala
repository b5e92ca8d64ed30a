package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{SemanticData, SemanticDataset}
import scala.util.Random

/** Harness-level exactness over odd inputs, and the identity the shared
  * probe rests on: each partition's restricted lists, answer and counters
  * equal those of an engine over a partition-local index.
  */
class PartitionPathSpec extends AnyFunSuite {

  private val Solo = "solo_oov" // no vector; in exactly one set
  private val DupCopies = 5     // copies of one set, so scores tie at θ_k*

  /** Clustered corpus of `nSets` random sets plus `DupCopies` copies of set
    * 0 (fresh ids) and, in set 1, a token without a vector found nowhere else.
    */
  private def corpus(rng: Random, nSets: Int): SemanticDataset = {
    val dim = 6
    val emb = Map.newBuilder[String, Array[Float]]
    val vocab = for (c <- 0 until 8; centroid = Array.fill(dim)(rng.nextGaussian()); j <- 0 until 3)
      yield {
        val t = s"c${c}_$j"
        if ((c * 3 + j) % 5 != 4) emb += t -> centroid.map(x => (x + 0.3 * rng.nextGaussian()).toFloat)
        t
      }
    val base = Vector.tabulate(nSets)(i => SetRecord(i.toLong, rng.shuffle(vocab).take(1 + rng.nextInt(8))))
    val sets = base.updated(1, SetRecord(1L, base(1).tokens :+ Solo)) ++
      (1 to DupCopies).map(c => SetRecord(1000L + c, base(0).tokens))
    SemanticDataset(SemanticData.tinyProfile, sets, emb.result())
  }

  private def queries(rng: Random, ds: SemanticDataset): Seq[Seq[String]] = {
    val vocab = ds.sets.flatMap(_.tokens).distinct
    Seq(
      Seq.empty,
      Seq(Solo),
      Seq("nowhere", Solo),
      ds.sets.head.tokens.toSeq, // DupCopies + 1 sets score |Q|: ties at θ_k* for k = 3
      ds.sets(rng.nextInt(ds.sets.length)).tokens.toSeq,
      rng.shuffle(vocab).take(1 + rng.nextInt(6)) :+ "nowhere")
  }

  private def assertMatchesReference(got: Seq[ScoredSet], ds: SemanticDataset, q: Seq[String],
                                     simFn: TokenSimilarity, alpha: Double, k: Int, what: String): Unit = {
    val ref = Reference.topK(ds.sets, q, simFn, alpha, k)
    assert(got.length == ref.length, s"$what: ${got.length} results != ${ref.length}")
    got.zip(ref).foreach { case (g, r) =>
      assert(math.abs(g.score - r.score) < 1e-9, s"$what: score ${g.score} != reference ${r.score}")
    }
    val byId = ds.sets.map(r => r.id -> r).toMap
    got.foreach { g =>
      val so = Matching.semanticOverlapDirect(q.distinct.toArray, byId(g.id).tokens, simFn, alpha)
      assert(math.abs(g.score - so) < 1e-9, s"$what: set ${g.id} reported ${g.score}, true SO $so")
    }
  }

  private def bits(xs: Array[(String, Double)]): Seq[(String, Long)] =
    xs.toSeq.map { case (t, s) => (t, java.lang.Double.doubleToRawLongBits(s)) }

  private def withoutTimes(s: SearchStats): SearchStats = s.copy(refinementMs = 0.0, postprocMs = 0.0)

  /** An `engineOf` that runs `engine` on the restricted lists and on a
    * partition-local index and asserts both give the same lists, answer and
    * counters, on a daemon pool thread.
    */
  private def identityChecked(eng: PartitionedEngines, params: KoiosParams,
                              engine: (SetCollection, SimilarityIndex) => SearchResult)
      : (SetCollection, SimilarityIndex) => Seq[String] => SearchResult =
    (c, restricted) => q => {
      assert(Thread.currentThread().isDaemon)
      val local = eng.similarity match {
        case j: JaccardQGramSimilarity => new QGramPrefixIndex(c.vocabulary, j)
        case s                         => new BruteForceSimilarityIndex(c.vocabulary, s)
      }
      q.distinct.foreach { t =>
        assert(bits(restricted.neighbors(t, params.alpha)) == bits(local.neighbors(t, params.alpha)),
          s"lists for '$t' differ")
      }
      val shared = engine(c, restricted)
      val own = engine(c, local)
      assert(shared.topk == own.topk)
      assert(withoutTimes(shared.stats) == withoutTimes(own.stats))
      shared
    }

  private def check(sim: Option[TokenSimilarity]): Unit = {
    val rng = new Random(160)
    var runs = 0
    for (nSets <- Seq(3, 40); partitions <- Seq(1, 4, 12)) {
      val ds = corpus(rng, nSets)
      val eng = new PartitionedEngines(ds, partitions, seed = rng.nextLong(), simOverride = sim)
      try {
        assert(eng.parts.count(_.inverted.get(Solo).nonEmpty) == 1)
        if (partitions > 1) assert(eng.parts.count(_.records.exists(_.id > 1000L)) >= 2) // ties span partitions
        if (partitions > ds.sets.length) assert(eng.parts.exists(_.records.isEmpty))
        for (q <- queries(rng, ds); alpha <- Seq(0.5, 0.8, 1.0); k <- Seq(1, 3, 1000)) {
          val params = KoiosParams(k, alpha)
          val what = s"sets=$nSets p=$partitions alpha=$alpha k=$k q=${q.mkString(",")}"
          assertMatchesReference(eng.runKoios(q, params)._1, ds, q, eng.similarity, alpha, k, s"koios $what")
          assertMatchesReference(eng.runBaseline(q, params)._1, ds, q, eng.similarity, alpha, k,
            s"baseline $what")
          eng.run(q, params, identityChecked(eng, params, (c, i) => new KoiosEngine(c, i).search(q, params)))
          eng.run(q, params, identityChecked(eng, params, (c, i) => new BaselineEngine(c, i).search(q, params)))
          runs += 1
        }
      } finally eng.shutdown()
    }
    assert(runs == 2 * 3 * 6 * 3 * 3)
  }

  test("odd inputs match the reference and partition-local indexes (embeddings)") {
    check(None)
  }

  test("odd inputs match the reference and partition-local indexes (3-gram Jaccard)") {
    check(Some(new JaccardQGramSimilarity(3)))
  }

  test("merge of no partition results is empty") {
    assert(SearchResult.merge(Seq.empty, 3) == SearchResult(Seq.empty, SearchStats()))
  }
}
