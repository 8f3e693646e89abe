package repro.ws

/** One attribute's votes with every distinct value interned: `vote(d, j)` is
  * function j's vote on document d, an index into the values, or
  * [[VoteMatrix.Abstain]]. Steps 6–7 of Algorithm 1 (bucketing, the label
  * model's fit and the weighted prediction) run on these `Int`s; value
  * strings are read only to break ties.
  */
final class VoteMatrix private (val nDocs: Int, val nFns: Int, votes: Array[Int], values: Array[String]) {

  def vote(d: Int, j: Int): Int = votes(d * nFns + j)

  private[ws] def abstain(d: Int, j: Int): Unit = votes(d * nFns + j) = VoteMatrix.Abstain

  /** The value an id stands for; "" for an abstention. */
  def value(id: Int): String = if (id == VoteMatrix.Abstain) "" else values(id)

  /** Orders two ids as their value strings. */
  def compareValues(a: Int, b: Int): Int = values(a).compareTo(values(b))
}

object VoteMatrix {

  val Abstain: Int = -1

  /** Interns `cell(d, j)` for `nDocs` × `nFns` cells; a null cell abstains. */
  def apply(nDocs: Int, nFns: Int)(cell: (Int, Int) => String): VoteMatrix = {
    val ids    = new java.util.HashMap[String, Integer]()
    val values = Array.newBuilder[String]
    val votes  = new Array[Int](nDocs * nFns)
    var d      = 0
    while (d < nDocs) {
      var j = 0
      while (j < nFns) {
        val v = cell(d, j)
        votes(d * nFns + j) =
          if (v == null) Abstain
          else {
            val id = ids.get(v)
            if (id != null) id.intValue
            else { ids.put(v, ids.size); values += v; ids.size - 1 }
          }
        j += 1
      }
      d += 1
    }
    new VoteMatrix(nDocs, nFns, votes, values.result())
  }

  /** `rows(d)(j)`, with None, and a cell past a row's end, as an abstention. */
  def of(rows: IndexedSeq[IndexedSeq[Option[String]]], nFns: Int): VoteMatrix =
    apply(rows.size, nFns)((d, j) => if (j < rows(d).length) rows(d)(j).orNull else null)
}
