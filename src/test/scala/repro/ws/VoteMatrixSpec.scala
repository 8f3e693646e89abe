package repro.ws

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.ws.Aggregation._

/** The interned-vote kernel against [[AggregationReference]], the
  * `Option`-based code it replaced: equal predictions, buckets and
  * accuracies (bit for bit) on seeded random vote matrices, in all four
  * modes.
  */
class VoteMatrixSpec extends AnyFunSuite {

  private val modes = Seq(MajorityVote, WsRaw, WsFilter, WsFull)
  private val es    = Seq(0.0, 0.3, 0.5, 0.51, 0.9, 1.0)

  /** Few values, so counts and weights tie often; "" is a value. */
  private val vocab = Seq("", "", "a", "b", "c", "d", "e", "f", "A", "ab", "b ", "é")

  private def rawRows(nDocs: Int, nFns: Int, spread: Int): Gen[IndexedSeq[IndexedSeq[String]]] =
    Gen.listOfN(nDocs, Gen.listOfN(nFns, Gen.oneOf(vocab.take(spread))).map(_.toIndexedSeq)).map(_.toIndexedSeq)

  private def optionRows(rows: IndexedSeq[IndexedSeq[String]], abstain: String): IndexedSeq[IndexedSeq[Option[String]]] =
    rows.map(_.map(v => Option.when(v != abstain)(v)))

  /** Asserts every step of the kernel equals the reference on `raw`. */
  private def checkAll(raw: IndexedSeq[IndexedSeq[String]], clue: String): Unit = {
    val rows = raw.zipWithIndex.map { case (r, d) => (s"d$d", r) }
    for (mode <- modes; e <- es)
      assert(aggregate(rows, e, mode) == AggregationReference.aggregate(rows, e, mode), s"$clue $mode e=$e")
    val nFns = raw.headOption.fold(0)(_.length)
    for (abstain <- Seq("", "a")) {
      val votes = optionRows(raw, abstain)
      val fit   = LabelModel.fit(VoteMatrix.of(votes, nFns))
      assert(fit.sameElements(AggregationReference.fitAccuracies(votes, nFns)), s"$clue fit ${fit.toSeq}")
      for (row <- votes) {
        for (b <- Seq(0, 1, 2, VoteBuckets, 12))
          assert(bucketRow(row, b) == AggregationReference.bucketRow(row, b), s"$clue bucket b=$b $row")
        val m = VoteMatrix.of(IndexedSeq(row), row.length)
        for (w <- Seq(Array.fill(nFns)(1.0), LabelModel.weights(fit), Array(0.3, 0.3)))
          assert(m.value(LabelModel.predict(m, 0, w)) == AggregationReference.predict(row, w), s"$clue predict $row")
      }
    }
    for (r <- raw; e <- es; mode <- modes; v <- r)
      assert(interpretVote(v, e, mode) == AggregationReference.interpretVote(v, e, mode))
  }

  test("property: the kernel equals the Option-based reference on seeded random vote matrices") {
    val matrix = for {
      nDocs  <- Gen.frequency(1 -> Gen.choose(0, 3), 3 -> Gen.choose(4, 60))
      nFns   <- Gen.choose(1, 10)
      spread <- Gen.choose(2, vocab.size)
      rows   <- rawRows(nDocs, nFns, spread)
    } yield rows
    for (i <- 0 until 300)
      checkAll(matrix.apply(Gen.Parameters.default, Seed(i.toLong)).get, s"seed $i")
  }

  test("property: votes interned in parts, merged, and predicted over a column subset equal the reference") {
    val lake = for {
      nDocs  <- Gen.choose(0, 40)
      nFns   <- Gen.choose(1, 8)
      spread <- Gen.choose(2, vocab.size)
      rows   <- rawRows(nDocs, nFns, spread)
      cuts   <- Gen.listOfN(3, Gen.choose(0, nDocs)) // parts may be empty
      k      <- Gen.choose(1, nFns)
      cols   <- Gen.pick(k, 0 until nFns)
    } yield (rows, nFns, (0 +: cuts.sorted :+ nDocs), cols.toIndexedSeq)
    for (i <- 0 until 200) {
      val (raw, nFns, bounds, cols) = lake.apply(Gen.Parameters.default, Seed(i.toLong)).get
      val parts  = bounds.zip(bounds.tail).map { case (a, b) =>
        val p = raw.slice(a, b)
        VoteMatrix(p.size, nFns)((d, j) => p(d)(j))
      }
      val merged = VoteMatrix.concat(nFns, parts)
      assert(merged.nDocs == raw.size && merged.nValues == raw.flatten.distinct.size, s"seed $i")
      val rows = raw.zipWithIndex.map { case (r, d) => (s"d$d", cols.map(r)) }
      for (mode <- modes; e <- es) {
        val ids = predict(merged, cols, e, mode)
        val ref = AggregationReference.aggregate(rows, e, mode)
        assert(rows.indices.forall(d => merged.value(ids(d)) == ref(s"d$d")), s"seed $i $mode e=$e")
      }
    }
  }

  test("ties at the bucket cut and in the weighted argmax, and rows past VoteBuckets values") {
    checkAll(IndexedSeq(
      IndexedSeq("e", "d", "c", "b", "a", "f"),   // six values, one vote each: the cut is by value
      IndexedSeq("b", "b", "a", "a", "c", "c"),   // three tied pairs
      IndexedSeq("f", "e", "d", "c", "b", "a"),
      IndexedSeq("a", "b", "a", "b", "a", "b"),
      IndexedSeq("", "", "x", "y", "z", "w")), "ties")
  }

  test("all-abstain rows, two voters, a single function and the empty lake") {
    checkAll(IndexedSeq.fill(6)(IndexedSeq("", "", "")), "all empty")
    checkAll(IndexedSeq(IndexedSeq("", ""), IndexedSeq("a", ""), IndexedSeq("a", "a"), IndexedSeq("b", "a"),
      IndexedSeq("c", "c"), IndexedSeq("c", "d")), "two voters")
    checkAll(IndexedSeq("a", "", "b", "a", "", "c").map(IndexedSeq(_)), "one function")
    checkAll(IndexedSeq.empty, "empty lake")
    assert(aggregate(Nil, 1.0, WsFull).isEmpty)
    assert(LabelModel.fit(VoteMatrix.of(IndexedSeq(IndexedSeq(None, None)), 2)).sameElements(Array(0.51, 0.51)))
  }

  test("the plurality fallback: too little support for any triplet") {
    // Two documents: every pair has support < 3, so no triplet estimate.
    checkAll(IndexedSeq(IndexedSeq("a", "a", "b", "b"), IndexedSeq("c", "d", "d", "c")), "two docs")
    // Pairs agree too rarely (p <= 0.05) for a triplet estimate.
    checkAll(IndexedSeq.tabulate(30, 4)((d, j) => s"v${d * 4 + j}"), "no agreement")
    val votes = IndexedSeq(IndexedSeq(Some("a"), Some("b"), Some("b")), IndexedSeq(Some("a"), Some("b"), None))
    assert(LabelModel.fit(VoteMatrix.of(votes, 3)).sameElements(AggregationReference.fitAccuracies(votes, 3)))
  }

  test("rows shorter than nFns abstain after their end, as in the reference") {
    val votes = IndexedSeq(IndexedSeq(Some("a")), IndexedSeq(Some("a"), Some("a"), Some("b")),
      IndexedSeq.empty, IndexedSeq(Some("b"), Some("b")))
    assert(LabelModel.fit(VoteMatrix.of(votes, 3)).sameElements(AggregationReference.fitAccuracies(votes, 3)))
  }
}
