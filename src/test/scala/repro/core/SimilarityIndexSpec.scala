package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SimilarityIndexSpec extends AnyFunSuite {

  private def clusteredEmbeddings(rng: Random, clusters: Int, perCluster: Int, dim: Int = 8)
      : Map[String, Array[Float]] = {
    (0 until clusters).flatMap { c =>
      val centroid = Array.fill(dim)(rng.nextGaussian())
      (0 until perCluster).map { j =>
        val v = centroid.map(x => (x + rng.nextGaussian() * 0.15).toFloat)
        s"c${c}_$j" -> v
      }
    }.toMap
  }

  test("brute-force index returns descending similarities") {
    val rng = new Random(20)
    val emb = clusteredEmbeddings(rng, 5, 4)
    val vocab = emb.keys.toArray.sorted
    val idx = new BruteForceSimilarityIndex(vocab, new EmbeddingCosineSimilarity(emb))
    for (q <- vocab.take(10)) {
      val ns = idx.neighbors(q, 0.3)
      assert(ns.map(_._2).toSeq == ns.map(_._2).toSeq.sorted(Ordering[Double].reverse))
    }
  }

  test("brute-force index is complete and exact vs direct computation") {
    val rng = new Random(21)
    val emb = clusteredEmbeddings(rng, 6, 3)
    val simFn = new EmbeddingCosineSimilarity(emb)
    val vocab = emb.keys.toArray.sorted
    val idx = new BruteForceSimilarityIndex(vocab, simFn)
    for (q <- vocab) {
      val expected = vocab.map(t => (t, simFn.sim(q, t))).filter(_._2 >= 0.5).toMap
      val got = idx.neighbors(q, 0.5).toMap
      assert(got.keySet == expected.keySet)
      got.foreach { case (t, s) => assert(math.abs(s - expected(t)) < 1e-9) }
    }
  }

  test("self token always first with similarity 1") {
    val rng = new Random(22)
    val emb = clusteredEmbeddings(rng, 4, 3)
    val vocab = emb.keys.toArray.sorted
    val idx = new BruteForceSimilarityIndex(vocab, new EmbeddingCosineSimilarity(emb))
    for (q <- vocab.take(6)) {
      val ns = idx.neighbors(q, 0.8)
      assert(ns.head == ((q, 1.0)))
    }
  }

  test("OOV query token in vocabulary matches only itself (§V OOV rule)") {
    val emb = Map("a" -> Array(1f, 0f, 0f))
    val vocab = Array("a", "oovtok", "b")
    val idx = new BruteForceSimilarityIndex(vocab, new EmbeddingCosineSimilarity(emb))
    assert(idx.neighbors("oovtok", 0.5).toSeq == Seq(("oovtok", 1.0)))
  }

  test("query token absent from vocabulary yields no neighbors") {
    val emb = Map("a" -> Array(1f, 0f))
    val idx = new BruteForceSimilarityIndex(Array("a"), new EmbeddingCosineSimilarity(emb))
    assert(idx.neighbors("ghost", 0.5).isEmpty)
  }

  test("OOV vocabulary tokens never match a different query token") {
    val emb = Map("a" -> Array(1f, 0f))
    val vocab = Array("a", "noVec1", "noVec2")
    val idx = new BruteForceSimilarityIndex(vocab, new EmbeddingCosineSimilarity(emb))
    assert(idx.neighbors("a", 0.1).toSeq == Seq(("a", 1.0)))
  }

  test("generic (non-embedding) similarity path works") {
    val j = new JaccardQGramSimilarity(3)
    val vocab = Array("blaine", "blain", "boston", "blainez")
    val idx = new BruteForceSimilarityIndex(vocab, j)
    val ns = idx.neighbors("blaine", 0.5)
    assert(ns.head == (("blaine", 1.0)))
    assert(ns.map(_._1).contains("blain"))
    assert(!ns.map(_._1).contains("boston"))
  }

  test("alpha threshold is inclusive") {
    val f = new TokenSimilarity {
      def sim(a: String, b: String) = if (a == b) 1.0 else 0.8
    }
    val idx = new BruteForceSimilarityIndex(Array("x", "y"), f)
    assert(idx.neighbors("x", 0.8).length == 2)
    assert(idx.neighbors("x", 0.80001).length == 1)
  }

  test("precomputed index filters by alpha and sorts descending") {
    val idx = new PrecomputedSimilarityIndex(Map(
      "q" -> Array(("a", 0.7), ("b", 0.95), ("c", 0.85))))
    assert(idx.neighbors("q", 0.8).toSeq == Seq(("b", 0.95), ("c", 0.85)))
    assert(idx.neighbors("q", 0.1).map(_._1).toSeq == Seq("b", "c", "a"))
    assert(idx.neighbors("missing", 0.1).isEmpty)
  }

  test("precomputed index equals filter-then-sort of a shuffled list") {
    val rng = new Random(24)
    for (_ <- 0 until 50) {
      // Coarse similarities, so ties by similarity are common.
      val list = (0 until rng.nextInt(20)).map(i => (s"t$i", rng.nextInt(11) / 10.0))
      val shuffled = rng.shuffle(list).toArray
      val idx = new PrecomputedSimilarityIndex(Map("q" -> shuffled))
      for (alpha <- Seq(0.05, 0.3, 0.5, 0.8, 1.0)) {
        val expected = SimilarityIndex.sorted(shuffled.filter(_._2 >= alpha))
        assert(idx.neighbors("q", alpha).toSeq == expected.toSeq)
      }
    }
  }

  /** `(token, raw bits of the similarity)`, so doubles compare bit for bit. */
  private def bits(xs: Array[(String, Double)]): Seq[(String, Long)] =
    xs.toSeq.map { case (t, s) => (t, java.lang.Double.doubleToRawLongBits(s)) }

  test("embedding probe is bit-identical to sim over the vocabulary") {
    val rng = new Random(25)
    for (round <- 0 until 200) {
      val dim = 1 + rng.nextInt(13)
      val nVocab = rng.nextInt(4) + 4 * rng.nextInt(8) // tails of 0-3 rows
      val emb = clusteredEmbeddings(rng, 1 + rng.nextInt(4), 1 + nVocab, dim)
      // Vocabulary: embedded tokens, tokens without a vector and a zero vector.
      val oov = Seq("oov_a", "oov_b")
      val raw = emb + ("zero" -> Array.fill(dim)(0f))
      val pool = rng.shuffle(emb.keys.toSeq ++ oov :+ "zero")
      val vocab0 = pool.take(nVocab).toArray
      val vocab = if (round % 2 == 0) vocab0.sorted else vocab0
      val simFn = new EmbeddingCosineSimilarity(raw)
      val idx = new BruteForceSimilarityIndex(vocab, simFn)
      // Queries: vocabulary tokens, embedded tokens outside the vocabulary,
      // OOV tokens (in the vocabulary or not) and an absent token.
      val queries = (pool ++ Seq("ghost")).distinct
      for (q <- queries; alpha <- Seq(0.05, 0.5, 0.8, 0.95, 1.0)) {
        val expected = SimilarityIndex.sorted(
          vocab.map(t => (t, simFn.sim(q, t))).filter(_._2 >= alpha))
        assert(bits(idx.neighbors(q, alpha)) == bits(expected),
          s"round $round dim $dim |vocab| ${vocab.length} q $q alpha $alpha")
      }
      // `sim` itself: the sequential clamped dot product of the normalized
      // vectors, as computed from the raw map.
      val unit = emb.map { case (t, v) =>
        val n = math.sqrt(v.map(x => x.toDouble * x).sum)
        t -> v.map(x => (x / n).toFloat)
      }
      for (a <- emb.keys; b <- emb.keys if a != b) {
        var s = 0.0
        for (d <- 0 until dim) s += unit(a)(d).toDouble * unit(b)(d)
        val want = math.min(1.0, math.max(0.0, s))
        assert(java.lang.Double.doubleToRawLongBits(simFn.sim(a, b)) ==
          java.lang.Double.doubleToRawLongBits(want))
      }
    }
  }

  test("q-gram prefix index agrees with brute force (completeness + exactness)") {
    val j = new JaccardQGramSimilarity(3)
    val rng = new Random(23)
    val vocab = (0 until 80).map(_ => Random.alphanumeric.take(3 + rng.nextInt(8)).mkString)
      .distinct.toArray
    val prefix = new QGramPrefixIndex(vocab, j)
    val brute = new BruteForceSimilarityIndex(vocab, j)
    for (q <- vocab.take(25); alpha <- Seq(0.4, 0.6, 0.8)) {
      val a = prefix.neighbors(q, alpha).toSeq
      val b = brute.neighbors(q, alpha).toSeq
      assert(a == b, s"prefix index differs from brute force for q=$q alpha=$alpha")
    }
  }

  test("q-gram prefix index finds the query token itself") {
    val j = new JaccardQGramSimilarity(3)
    val prefix = new QGramPrefixIndex(Array("alpha", "beta"), j)
    assert(prefix.neighbors("alpha", 0.9).toSeq == Seq(("alpha", 1.0)))
  }

  test("deterministic tie-breaking by token") {
    val f = new TokenSimilarity {
      def sim(a: String, b: String) = if (a == b) 1.0 else 0.9
    }
    val idx = new BruteForceSimilarityIndex(Array("zz", "aa", "mm"), f)
    assert(idx.neighbors("aa", 0.5).map(_._1).toSeq == Seq("aa", "mm", "zz"))
  }
}
