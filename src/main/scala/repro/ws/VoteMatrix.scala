package repro.ws

/** Votes with every distinct value interned: `vote(d, j)` is function j's
  * vote on document d, an index into the values, or [[VoteMatrix.Abstain]].
  * Steps 6–7 of Algorithm 1 (abstention per `e`, bucketing, the label
  * model's fit and the weighted prediction) run on these `Int`s; value
  * strings are read only to break ties.
  *
  * A lake pass interns every raw output of every lake function, "" included,
  * into one matrix; each attribute's votes are a [[select]] of its columns
  * over the same values, so an attribute's prediction is an id into them.
  */
final class VoteMatrix private (val nDocs: Int, val nFns: Int, private val votes: Array[Int],
                                 private val values: Array[String])
    extends Serializable {

  def vote(d: Int, j: Int): Int = votes(d * nFns + j)

  private[ws] def abstain(d: Int, j: Int): Unit = votes(d * nFns + j) = VoteMatrix.Abstain

  /** The value an id stands for; "" for an abstention. */
  def value(id: Int): String = if (id == VoteMatrix.Abstain) "" else values(id)

  /** The number of distinct values; every id is below it. */
  def nValues: Int = values.length

  /** Orders two ids as their value strings. */
  def compareValues(a: Int, b: Int): Int = values(a).compareTo(values(b))

  /** Columns `cols` of this matrix, in that order and over the same values,
    * with every vote for "" an abstention when `emptyAbstains`.
    */
  def select(cols: IndexedSeq[Int], emptyAbstains: Boolean): VoteMatrix = {
    val empty = if (emptyAbstains) values.indexOf("") else VoteMatrix.Abstain
    val n     = cols.length
    val out   = new Array[Int](nDocs * n)
    var d     = 0
    while (d < nDocs) {
      var j = 0
      while (j < n) {
        val id = votes(d * nFns + cols(j))
        out(d * n + j) = if (id == empty) VoteMatrix.Abstain else id
        j += 1
      }
      d += 1
    }
    new VoteMatrix(nDocs, n, out, values)
  }
}

object VoteMatrix {

  val Abstain: Int = -1

  /** Interns rows of `nFns` cells, one row at a time; a null cell abstains. */
  final class Builder(nFns: Int) {
    private val ids    = new java.util.HashMap[String, Integer]()
    private val values = Array.newBuilder[String]
    private var votes  = new Array[Int](nFns * 16)
    private var nDocs  = 0

    /** The id of `v`, new if `v` was not seen; Abstain for null. */
    private[ws] def intern(v: String): Int =
      if (v == null) Abstain
      else {
        val id = ids.get(v)
        if (id != null) id.intValue
        else { ids.put(v, ids.size); values += v; ids.size - 1 }
      }

    /** Appends a row whose cell j is `id(j)`, an id this builder gave. */
    private[ws] def addIds(id: Int => Int): this.type = {
      if (votes.length < (nDocs + 1) * nFns) votes = java.util.Arrays.copyOf(votes, 2 * (nDocs + 1) * nFns)
      var j = 0
      while (j < nFns) { votes(nDocs * nFns + j) = id(j); j += 1 }
      nDocs += 1
      this
    }

    /** Appends a row whose cell j is `cell(j)`. */
    def add(cell: Int => String): this.type = addIds(j => intern(cell(j)))

    def result(): VoteMatrix =
      new VoteMatrix(nDocs, nFns, java.util.Arrays.copyOf(votes, nDocs * nFns), values.result())
  }

  /** Interns `cell(d, j)` for `nDocs` × `nFns` cells; a null cell abstains. */
  def apply(nDocs: Int, nFns: Int)(cell: (Int, Int) => String): VoteMatrix = {
    val b = new Builder(nFns)
    var d = 0
    while (d < nDocs) { val row = d; b.add(cell(row, _)); d += 1 }
    b.result()
  }

  /** `rows(d)(j)`, with None, and a cell past a row's end, as an abstention. */
  def of(rows: IndexedSeq[IndexedSeq[Option[String]]], nFns: Int): VoteMatrix =
    apply(rows.size, nFns)((d, j) => if (j < rows(d).length) rows(d)(j).orNull else null)

  /** The rows of `parts`, in order, each of `nFns` columns, over one merged
    * dictionary: each part's values are interned once.
    */
  def concat(nFns: Int, parts: Seq[VoteMatrix]): VoteMatrix = {
    val b = new Builder(nFns)
    parts.foreach { m =>
      require(m.nFns == nFns, s"a part of ${m.nFns} columns, not $nFns")
      val ids = m.values.map(b.intern)
      var d   = 0
      while (d < m.nDocs) {
        val row = d * nFns
        b.addIds { j => val id = m.votes(row + j); if (id == Abstain) Abstain else ids(id) }
        d += 1
      }
    }
    b.result()
  }
}
