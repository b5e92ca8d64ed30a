package repro.core

import scala.collection.mutable

/** The inverted index `I_s` (§IV): maps each vocabulary token to the posting
  * list of positions (into the repository array) of the sets containing it.
  */
final class InvertedIndex private (
    private val postings: mutable.HashMap[String, Array[Int]],
    val vocabulary: Array[String]) extends Serializable {

  /** Posting list for `token` (empty if the token is not in the vocabulary). */
  def get(token: String): Array[Int] = postings.getOrElse(token, InvertedIndex.Empty)
}

object InvertedIndex {
  private val Empty = Array.empty[Int]

  /** Builds the index over a repository; `records(i)` is addressed by postings
    * containing `i`. Vocabulary order is deterministic (sorted) so downstream
    * iteration is reproducible.
    */
  def build(records: IndexedSeq[SetRecord]): InvertedIndex = {
    val m = new mutable.HashMap[String, mutable.ArrayBuffer[Int]]()
    var i = 0
    while (i < records.length) {
      val toks = records(i).tokens
      var j = 0
      while (j < toks.length) {
        m.getOrElseUpdate(toks(j), new mutable.ArrayBuffer[Int]()) += i
        j += 1
      }
      i += 1
    }
    val frozen = new mutable.HashMap[String, Array[Int]]()
    m.foreach { case (t, buf) => frozen.put(t, buf.toArray) }
    new InvertedIndex(frozen, m.keysIterator.toArray.sorted)
  }
}
