package repro.core

/** User-defined element similarity (Def. 1).
  *
  * Must be symmetric, return 1 for identical elements, and a value in [0, 1]
  * otherwise. The α threshold is applied by callers (`sim_α`), not here.
  */
trait TokenSimilarity extends Serializable {
  def sim(a: String, b: String): Double

  /** sim_α from Def. 1: values below the threshold are zeroed. */
  final def simAlpha(a: String, b: String, alpha: Double): Double = {
    val s = sim(a, b)
    if (s >= alpha) s else 0.0
  }
}

/** Vanilla overlap as a special case of semantic overlap: equality → 1 else 0. */
object ExactMatchSimilarity extends TokenSimilarity {
  override def sim(a: String, b: String): Double = if (a == b) 1.0 else 0.0
}

/** Cosine similarity of token embedding vectors (the paper's FastText setup).
  *
  * Out-of-vocabulary handling follows §V: identical tokens always have
  * similarity 1 (even if neither has a vector); if either token lacks a
  * vector and they differ, the similarity is 0. Vectors are L2-normalized at
  * construction so `sim` is a clamped dot product.
  *
  * The normalized vectors live in one packed row-major store: row `r` of
  * [[data]] is `data(r * dim until (r + 1) * dim)`, rows are assigned in
  * sorted token order, and one extra all-zero row ([[zeroRow]]) follows the
  * last token. [[rowOf]] maps a token to its row through an open-addressing
  * table. The store is built once and shared read-only by every
  * [[BruteForceSimilarityIndex]] over it.
  */
final class EmbeddingCosineSimilarity(raw: Map[String, Array[Float]]) extends TokenSimilarity {
  import EmbeddingCosineSimilarity._

  // Row -> token, the inverse of `rowOf`, in sorted order so that a sorted
  // vocabulary reads the store front to back. Zero vectors are treated as
  // out-of-vocabulary and get no row.
  private val tokens: Array[String] = {
    val ts = raw.iterator.collect { case (t, v) if norm(v) != 0.0 => t }.toArray
    java.util.Arrays.sort(ts.asInstanceOf[Array[AnyRef]])
    ts
  }

  /** Dimension shared by every stored vector (0 if none is stored). */
  val dim: Int = if (tokens.isEmpty) 0 else raw(tokens(0)).length

  /** Row of the shared all-zero vector, one past the last token's row. */
  private[core] val zeroRow: Int = tokens.length

  /** The packed unit vectors, row-major, [[zeroRow]] last. */
  private[core] val data: Array[Float] = pack(raw, tokens, dim)

  private val slots: Array[Int] = hashSlots(tokens)

  /** Row of `t`'s unit vector in [[data]], or [[NoRow]] if `t` has none. */
  def rowOf(t: String): Int = {
    val mask = slots.length - 1
    var i = spread(t.hashCode) & mask
    var row = NoRow
    var searching = true
    while (searching) {
      val r = slots(i) - 1
      if (r < 0) searching = false
      else if (tokens(r) == t) { row = r; searching = false }
      else i = (i + 1) & mask
    }
    row
  }

  override def sim(a: String, b: String): Double =
    if (a == b) 1.0
    else {
      val ra = rowOf(a); val rb = rowOf(b)
      if (ra == NoRow || rb == NoRow) 0.0
      else {
        var s = 0.0; var d = 0
        val oa = ra * dim; val ob = rb * dim
        while (d < dim) { s += data(oa + d).toDouble * data(ob + d); d += 1 }
        clamp(s)
      }
    }
}

object EmbeddingCosineSimilarity {
  /** [[EmbeddingCosineSimilarity.rowOf]] of a token without a vector. */
  val NoRow: Int = -1

  /** Clamps a dot product of unit vectors into [0, 1] (negative cosine means
    * "unrelated" for the overlap measure, which requires sim in [0, 1]).
    */
  private[core] def clamp(dot: Double): Double = math.min(1.0, math.max(0.0, dot))

  private def norm(v: Array[Float]): Double = {
    var s = 0.0; var d = 0
    while (d < v.length) { s += v(d).toDouble * v(d); d += 1 }
    math.sqrt(s)
  }

  /** The unit vectors of `tokens`, one row each, then one all-zero row. */
  private def pack(raw: Map[String, Array[Float]], tokens: Array[String], dim: Int): Array[Float] = {
    require((tokens.length + 1).toLong * dim <= Int.MaxValue,
      s"embedding store of ${tokens.length + 1} x $dim floats is too large")
    val a = new Array[Float]((tokens.length + 1) * dim)
    var r = 0
    while (r < tokens.length) {
      val v = raw(tokens(r))
      require(v.length == dim,
        s"every non-zero embedding vector must have dimension $dim; '${tokens(r)}' has ${v.length}")
      val n = norm(v)
      var d = 0
      while (d < dim) { a(r * dim + d) = (v(d) / n).toFloat; d += 1 }
      r += 1
    }
    a
  }

  /** Open-addressing table over `tokens`: a slot holds `row + 1`, 0 marks an
    * empty slot. The table is at most half full, so probe runs stay short.
    */
  private def hashSlots(tokens: Array[String]): Array[Int] = {
    var cap = 2
    while (cap < 2 * tokens.length) cap <<= 1
    val s = new Array[Int](cap)
    var r = 0
    while (r < tokens.length) {
      var i = spread(tokens(r).hashCode) & (cap - 1)
      while (s(i) != 0) i = (i + 1) & (cap - 1)
      s(i) = r + 1
      r += 1
    }
    s
  }

  private def spread(h: Int): Int = h ^ (h >>> 16)
}

/** Jaccard similarity of the q-gram multisets-as-sets of two tokens —
  * the character-level similarity used for the SilkMoth comparison (§VIII-B).
  * Tokens shorter than q are padded conceptually by using the token itself
  * as its only gram.
  */
final class JaccardQGramSimilarity(q: Int = 3) extends TokenSimilarity {
  require(q >= 1, s"q must be >= 1, got $q")

  // Gram sets are recomputed |Q|·|D| times during brute-force probing; the
  // cache is concurrent because partitions probe in parallel.
  @transient private lazy val cache =
    new java.util.concurrent.ConcurrentHashMap[String, Set[String]]()

  def grams(t: String): Set[String] = {
    val hit = cache.get(t)
    if (hit != null) hit
    else {
      val g =
        if (t.length <= q) Set(t)
        else (0 to t.length - q).map(i => t.substring(i, i + q)).toSet
      cache.put(t, g)
      g
    }
  }

  override def sim(a: String, b: String): Double =
    if (a == b) 1.0
    else {
      val ga = grams(a); val gb = grams(b)
      val inter = ga.count(gb.contains)
      val union = ga.size + gb.size - inter
      if (union == 0) 0.0 else inter.toDouble / union
    }
}
