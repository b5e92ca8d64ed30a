package repro.core

import scala.collection.mutable

/** Exact threshold-based similarity index over the vocabulary `D` (§IV).
  *
  * For a query token `q`, `neighbors(q, α)` returns every vocabulary token
  * with `sim(q, t) ≥ α`, in descending similarity (ties broken by token for
  * determinism). This is the abstraction the paper plugs Faiss / minhash-LSH
  * into; Koios only requires that results are exact and ordered.
  */
trait SimilarityIndex extends Serializable {
  def neighbors(q: String, alpha: Double): Array[(String, Double)]
}

object SimilarityIndex {
  /** Sorts `xs` in place by descending similarity, ties by token; returns it. */
  private[core] def sorted(xs: Array[(String, Double)]): Array[(String, Double)] = {
    scala.util.Sorting.stableSort(xs, (a: (String, Double), b: (String, Double)) =>
      a._2 > b._2 || (a._2 == b._2 && a._1 < b._1))
    xs
  }
}

/** Exact brute-force index — our substitute for the paper's GPU Faiss index.
  *
  * Computes `sim(q, t)` for every vocabulary token and sorts descending.
  * For [[EmbeddingCosineSimilarity]] the index holds only each vocabulary
  * token's row in the similarity's shared packed store (tokens without a
  * vector get its zero row), and a probe scores four vocabulary rows at a
  * time with four independent accumulators. Each accumulator adds
  * `q(d).toDouble * v(d)` for `d = 0 until dim` in order, exactly as
  * [[EmbeddingCosineSimilarity.sim]] does, so every returned similarity is
  * bit-identical to `simFn.sim(q, t)`. Out-of-vocabulary query tokens yield
  * only their identical-token match (similarity 1), which realizes the
  * paper's rule that a query element always matches itself (§V).
  */
final class BruteForceSimilarityIndex(vocab: Array[String], simFn: TokenSimilarity)
    extends SimilarityIndex {

  private val embedding: EmbeddingCosineSimilarity = simFn match {
    case e: EmbeddingCosineSimilarity => e
    case _                            => null
  }
  // Parallel to `vocab`: the token's row in `embedding`'s store.
  private val rows: Array[Int] =
    if (embedding eq null) null
    else vocab.map { t =>
      val r = embedding.rowOf(t)
      if (r == EmbeddingCosineSimilarity.NoRow) embedding.zeroRow else r
    }
  // `SetCollection` vocabularies are sorted, so membership of an
  // out-of-vocabulary query token is a binary search; others are scanned.
  private val vocabSorted: Boolean = (1 until vocab.length).forall(i => vocab(i - 1) <= vocab(i))

  private def inVocab(q: String): Boolean =
    if (vocabSorted) java.util.Arrays.binarySearch(vocab.asInstanceOf[Array[AnyRef]], q) >= 0
    else vocab.contains(q)

  override def neighbors(q: String, alpha: Double): Array[(String, Double)] = {
    val buf = new mutable.ArrayBuffer[(String, Double)]()
    if (embedding ne null) {
      val qRow = embedding.rowOf(q)
      if (qRow != EmbeddingCosineSimilarity.NoRow) probe(qRow, alpha, buf)
      else if (inVocab(q)) buf += ((q, 1.0)) // OOV query token: only itself matches.
    } else {
      var i = 0
      while (i < vocab.length) {
        val s = simFn.sim(q, vocab(i))
        if (s >= alpha) buf += ((vocab(i), s))
        i += 1
      }
    }
    SimilarityIndex.sorted(buf.toArray)
  }

  /** Scores every vocabulary row against row `qRow`, four rows per pass. */
  private def probe(qRow: Int, alpha: Double, buf: mutable.ArrayBuffer[(String, Double)]): Unit = {
    val data = embedding.data
    val dim = embedding.dim
    val qv = new Array[Double](dim)
    var d = 0
    while (d < dim) { qv(d) = data(qRow * dim + d).toDouble; d += 1 }

    def emit(i: Int, dot: Double): Unit = {
      val s = if (rows(i) == qRow) 1.0 else EmbeddingCosineSimilarity.clamp(dot)
      if (s >= alpha) buf += ((vocab(i), s))
    }

    val n = vocab.length
    var i = 0
    while (i + 4 <= n) {
      val o0 = rows(i) * dim; val o1 = rows(i + 1) * dim
      val o2 = rows(i + 2) * dim; val o3 = rows(i + 3) * dim
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      d = 0
      while (d < dim) {
        val x = qv(d)
        s0 += x * data(o0 + d); s1 += x * data(o1 + d)
        s2 += x * data(o2 + d); s3 += x * data(o3 + d)
        d += 1
      }
      emit(i, s0); emit(i + 1, s1); emit(i + 2, s2); emit(i + 3, s3)
      i += 4
    }
    while (i < n) {
      val o = rows(i) * dim
      var s = 0.0
      d = 0
      while (d < dim) { s += qv(d) * data(o + d); d += 1 }
      emit(i, s)
      i += 1
    }
  }
}

/** Prefix-filter index for q-gram Jaccard similarity — the paper's setup for
  * the fuzzy comparison (§VIII-B), where the token stream is produced with
  * set-similarity-join techniques instead of an embedding index: a gram
  * inverted index over the vocabulary is probed with the prefix of the query
  * token's gram set (`|g| − ceil(α·|g|) + 1` grams in a fixed global order),
  * which is guaranteed to hit every token with Jaccard ≥ α; survivors are
  * verified exactly.
  */
final class QGramPrefixIndex(vocab: Array[String], jaccard: JaccardQGramSimilarity)
    extends SimilarityIndex {

  private val gramIndex: Map[String, Array[String]] = {
    val m = scala.collection.mutable.HashMap.empty[String, mutable.ArrayBuffer[String]]
    vocab.foreach { t =>
      jaccard.grams(t).foreach(g => m.getOrElseUpdate(g, new mutable.ArrayBuffer[String]()) += t)
    }
    m.view.mapValues(_.toArray).toMap
  }
  private val vocabSet: Set[String] = vocab.toSet

  override def neighbors(q: String, alpha: Double): Array[(String, Double)] = {
    val gs = jaccard.grams(q).toArray.sorted
    val prefixLen = math.max(1, gs.length - math.ceil(alpha * gs.length).toInt + 1)
    val cands = mutable.HashSet.empty[String]
    gs.take(prefixLen).foreach(g => gramIndex.get(g).foreach(cands ++= _))
    if (vocabSet.contains(q)) cands += q
    val out = cands.iterator
      .map(t => (t, jaccard.sim(q, t)))
      .filter(_._2 >= alpha)
      .toArray
    SimilarityIndex.sorted(out)
  }
}

/** Index backed by precomputed (query token → neighbors) lists: a query's
  * tokens probed once over the whole vocabulary — by the driver-side
  * harness with a [[BruteForceSimilarityIndex]] or [[QGramPrefixIndex]], or
  * on Spark as a DataFrame similarity table that is collected and broadcast
  * (§VI scale-out). Each list is sorted once here, so a probe returns the
  * prefix with `sim ≥ α`; [[restrictTo]] gives a partition its own view.
  */
final class PrecomputedSimilarityIndex private (
    lists: Map[String, Array[(String, Double)]], isSorted: Boolean) extends SimilarityIndex {

  def this(lists: Map[String, Array[(String, Double)]]) = this(lists, isSorted = false)

  private val sortedLists: Map[String, Array[(String, Double)]] =
    if (isSorted) lists
    else lists.map { case (q, xs) => q -> SimilarityIndex.sorted(xs.clone()) }

  override def neighbors(q: String, alpha: Double): Array[(String, Double)] =
    sortedLists.getOrElse(q, Array.empty[(String, Double)]).takeWhile(_._2 >= alpha)

  /** The lists cut down to tokens with postings in `inverted`, each in its
    * order: the lists an index over that partition's vocabulary returns.
    */
  def restrictTo(inverted: InvertedIndex): PrecomputedSimilarityIndex =
    new PrecomputedSimilarityIndex(
      sortedLists.map { case (q, xs) => q -> xs.filter(n => inverted.get(n._1).nonEmpty) },
      isSorted = true)
}
