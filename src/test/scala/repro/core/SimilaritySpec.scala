package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SimilaritySpec extends AnyFunSuite {

  test("ExactMatchSimilarity is the vanilla-overlap special case") {
    assert(ExactMatchSimilarity.sim("a", "a") == 1.0)
    assert(ExactMatchSimilarity.sim("a", "b") == 0.0)
    assert(ExactMatchSimilarity.sim("", "") == 1.0)
  }

  test("simAlpha zeroes sub-threshold values and keeps the rest (Def. 1)") {
    val f = new TokenSimilarity { def sim(a: String, b: String) = 0.6 }
    assert(f.simAlpha("x", "y", 0.7) == 0.0)
    assert(f.simAlpha("x", "y", 0.6) == 0.6)
    assert(f.simAlpha("x", "y", 0.5) == 0.6)
  }

  test("cosine: identical tokens score 1 even without vectors (OOV rule, §V)") {
    val f = new EmbeddingCosineSimilarity(Map("a" -> Array(1f, 0f)))
    assert(f.sim("zzz", "zzz") == 1.0)
    assert(f.sim("a", "a") == 1.0)
  }

  test("cosine: OOV vs different token is 0") {
    val f = new EmbeddingCosineSimilarity(Map("a" -> Array(1f, 0f)))
    assert(f.sim("a", "zzz") == 0.0)
    assert(f.sim("zzz", "a") == 0.0)
    assert(f.sim("x", "y") == 0.0)
  }

  test("cosine of orthogonal vectors is 0, parallel is 1, opposite clamps to 0") {
    val f = new EmbeddingCosineSimilarity(Map(
      "x" -> Array(1f, 0f), "y" -> Array(0f, 1f),
      "x2" -> Array(2f, 0f), "negx" -> Array(-1f, 0f)))
    assert(math.abs(f.sim("x", "y")) < 1e-6)
    assert(math.abs(f.sim("x", "x2") - 1.0) < 1e-6) // normalization
    assert(f.sim("x", "negx") == 0.0) // clamped
  }

  test("cosine values always within [0, 1]") {
    val rng = new Random(10)
    val emb = (0 until 30).map(i => s"t$i" -> Array.fill(6)(rng.nextGaussian().toFloat)).toMap
    val f = new EmbeddingCosineSimilarity(emb)
    for (a <- emb.keys; b <- emb.keys) {
      val s = f.sim(a, b)
      assert(s >= 0.0 && s <= 1.0)
    }
  }

  test("cosine is symmetric") {
    val rng = new Random(11)
    val emb = (0 until 20).map(i => s"t$i" -> Array.fill(6)(rng.nextGaussian().toFloat)).toMap
    val f = new EmbeddingCosineSimilarity(emb)
    for (a <- emb.keys; b <- emb.keys)
      assert(math.abs(f.sim(a, b) - f.sim(b, a)) < 1e-12)
  }

  test("zero vectors are treated as OOV") {
    val f = new EmbeddingCosineSimilarity(Map("z" -> Array(0f, 0f), "a" -> Array(1f, 0f)))
    assert(f.rowOf("z") == EmbeddingCosineSimilarity.NoRow)
    assert(f.rowOf("a") != EmbeddingCosineSimilarity.NoRow)
    assert(f.sim("z", "a") == 0.0)
    assert(f.sim("z", "z") == 1.0)
  }

  test("cosine: every non-zero vector must have the same dimension") {
    intercept[IllegalArgumentException] { // shorter vector
      new EmbeddingCosineSimilarity(Map("a" -> Array(1f, 0f, 0f), "b" -> Array(0f, 1f)))
    }
    intercept[IllegalArgumentException] { // longer vector
      new EmbeddingCosineSimilarity(Map("a" -> Array(1f, 0f), "b" -> Array(0f, 1f, 1f)))
    }
    // Zero vectors are out-of-vocabulary, so their length does not matter.
    val f = new EmbeddingCosineSimilarity(Map("a" -> Array(1f, 0f), "z" -> Array(0f, 0f, 0f)))
    assert(f.dim == 2)
    assert(f.sim("a", "z") == 0.0)
  }

  test("3-gram extraction") {
    val j = new JaccardQGramSimilarity(3)
    assert(j.grams("abcde") == Set("abc", "bcd", "cde"))
    assert(j.grams("ab") == Set("ab")) // shorter than q: token itself
    assert(j.grams("abc") == Set("abc"))
  }

  test("Jaccard q-gram similarity on known pairs") {
    val j = new JaccardQGramSimilarity(3)
    assert(j.sim("abc", "abc") == 1.0)
    // blaine: {bla,lai,ain,ine}; blain: {bla,lai,ain} → 3/4
    assert(math.abs(j.sim("blaine", "blain") - 0.75) < 1e-9)
    assert(j.sim("abc", "xyz") == 0.0)
  }

  test("Jaccard q-gram is symmetric and in [0, 1]") {
    val j = new JaccardQGramSimilarity(3)
    val rng = new Random(12)
    val words = (0 until 30).map(_ => Random.alphanumeric.take(2 + rng.nextInt(8)).mkString)
    for (a <- words; b <- words) {
      val s = j.sim(a, b)
      assert(s >= 0.0 && s <= 1.0)
      assert(math.abs(s - j.sim(b, a)) < 1e-12)
    }
  }
}
