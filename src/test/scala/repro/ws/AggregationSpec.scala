package repro.ws

import org.scalatest.funsuite.AnyFunSuite
import repro.ws.Aggregation._

class AggregationSpec extends AnyFunSuite {

  // --------------------------------------------------------- e estimation

  test("estimateE is the non-empty fraction of LLM labels") {
    assert(estimateE(Seq("a", "", "b", "")) == 0.5)
    assert(estimateE(Seq("", "", "")) == 0.0)
    assert(estimateE(Seq("x")) == 1.0)
    assert(estimateE(Nil) == 0.0)
  }

  // ------------------------------------------------------ function scoring

  test("scoreFunction in the high-e regime only scores LLM-non-empty docs") {
    val lm = Seq("alpha", "", "beta", "gamma")  // e = 0.75 > tau
    val fn = Seq("alpha", "junk", "beta", "gamma")
    // The wrong 'junk' on the LLM-empty doc must not count.
    assert(scoreFunction(fn, lm, e = 0.75) == 1.0)
  }

  test("scoreFunction in the low-e regime scores all docs, rewarding correct emptiness") {
    val lm = Seq("", "", "alpha", "")           // e = 0.25
    val good = Seq("", "", "alpha", "")
    val over = Seq("x", "y", "alpha", "z")      // extracts junk on empty docs
    assert(scoreFunction(good, lm, e = 0.25) == 1.0)
    assert(scoreFunction(over, lm, e = 0.25) == 0.25)
  }

  test("scoreFunction gives partial credit through token F1") {
    val lm = Seq("June 29 1988")
    val fn = Seq("June 29")
    val s  = scoreFunction(fn, lm, e = 1.0)
    assert(s > 0.5 && s < 1.0, s.toString)
  }

  test("scoreFunction with no scorable pairs is zero") {
    assert(scoreFunction(Seq("a"), Seq(""), e = 0.9) == 0.0)
  }

  // -------------------------------------------------------- selection/filter

  test("selection keeps everything in the off-the-shelf modes") {
    val outs = Seq(Seq("a"), Seq("x"), Seq(""))
    val lm   = Seq("a")
    assert(selectFunctions(outs, lm, 1.0, MajorityVote)._1 == Seq(0, 1, 2))
    assert(selectFunctions(outs, lm, 1.0, WsRaw)._1 == Seq(0, 1, 2))
  }

  test("filtering drops functions scoring <= 0.5 against the LLM labels") {
    val lm   = Seq("alpha", "beta")
    val outs = Seq(Seq("alpha", "beta"), Seq("junk", "junk"), Seq("alpha", "junk"))
    val (kept, scores) = selectFunctions(outs, lm, 1.0, WsFilter)
    assert(kept == Seq(0))
    assert(scores(0) == 1.0 && scores(1) == 0.0 && scores(2) == 0.5)
  }

  test("filtering can remove every candidate (attribute then excluded, §4.4.2)") {
    val lm   = Seq("alpha", "beta")
    val outs = Seq(Seq("x", "y"), Seq("", ""))
    assert(selectFunctions(outs, lm, 1.0, WsFull)._1.isEmpty)
  }

  test("selection caps at the top-10 scoring functions (paper §4.1)") {
    val lm   = Seq("v")
    val outs = (0 until 15).map(_ => Seq("v"))
    assert(selectFunctions(outs, lm, 1.0, WsFull)._1.size == 10)
  }

  // --------------------------------------------------------- vote handling

  test("interpretVote treats empties as abstentions only in the full high-e mode") {
    assert(interpretVote("", e = 0.9, WsFull).isEmpty)
    assert(interpretVote("", e = 0.2, WsFull).contains(""))
    assert(interpretVote("", e = 0.9, WsRaw).contains(""))
    assert(interpretVote("", e = 0.9, MajorityVote).contains(""))
    assert(interpretVote("x", e = 0.9, WsFull).contains("x"))
  }

  test("bucketRow keeps the top-b values and abstains the rest") {
    val row = IndexedSeq(Some("a"), Some("a"), Some("b"), Some("b"), Some("c"),
      Some("d"), Some("e"), None)
    val bucketed = bucketRow(row, b = 2)
    assert(bucketed.flatten.toSet == Set("a", "b"))
    assert(bucketed.count(_.isEmpty) == 4)
  }

  test("bucketRow is deterministic under count ties") {
    val row = IndexedSeq(Some("z"), Some("y"), Some("x"))
    assert(bucketRow(row, b = 2) == bucketRow(row, b = 2))
    assert(bucketRow(row, b = 2).flatten.toSet == Set("x", "y"))
  }

  // ------------------------------------------------------------ aggregation

  private def rows(n: Int, f: Int => IndexedSeq[String]): Seq[(String, IndexedSeq[String])] =
    (0 until n).map(i => (s"d$i", f(i)))

  test("majority vote picks the most common value") {
    val r = rows(20, _ => IndexedSeq("a", "a", "b"))
    val preds = aggregate(r, e = 1.0, MajorityVote)
    assert(preds.values.toSet == Set("a"))
  }

  test("majority vote counts empties as votes (its weakness)") {
    val r = rows(20, _ => IndexedSeq("", "", "a"))
    val preds = aggregate(r, e = 1.0, MajorityVote)
    assert(preds.values.toSet == Set(""), "two empty votes beat one real one under MV")
  }

  test("full Algorithm 1 rescues the same case by treating empties as abstentions") {
    val r = rows(20, _ => IndexedSeq("", "", "a"))
    val preds = aggregate(r, e = 1.0, WsFull)
    assert(preds.values.toSet == Set("a"))
  }

  test("low-e regime predicts no-value when functions agree on emptiness") {
    val r = rows(20, i => if (i < 2) IndexedSeq("a", "a", "a") else IndexedSeq("", "", ""))
    val preds = aggregate(r, e = 0.1, WsFull)
    assert(preds.count(_._2 == "") == 18)
    assert(preds.count(_._2 == "a") == 2)
  }

  test("WS downweights a voter that disagrees with a coherent majority") {
    // 3 reliable voters + 2 correlated-wrong voters; per-doc the wrong pair
    // votes together, so MV is 3-2 anyway — instead make reliability vary
    // across docs: on 40% of docs only the bad pair votes a junk value.
    val r = rows(100, { i =>
      if (i % 5 < 3) IndexedSeq("t" + i, "t" + i, "t" + i, "junk", "junk")
      else IndexedSeq("t" + i, "", "", "junk", "junk")
    })
    val preds = aggregate(r, e = 1.0, WsFull)
    val correct = (0 until 100).count(i => preds(s"d$i") == "t" + i)
    assert(correct >= 60, s"correct=$correct")
  }

  test("a single surviving function's output is the prediction, in every mode and regime") {
    val outs = IndexedSeq("alpha", "", "beta", "alpha", "", "gamma delta", "beta")
    val r = outs.zipWithIndex.map { case (o, i) => (s"d$i", IndexedSeq(o)) }
    for (mode <- Seq(MajorityVote, WsRaw, WsFilter, WsFull); e <- Seq(0.0, 1.0)) {
      val preds = aggregate(r, e, mode)
      assert(preds.keySet == r.map(_._1).toSet)
      // An empty output predicts no value ("") whether it is a vote or an abstention.
      r.foreach { case (id, v) => assert(preds(id) == v.head, s"$mode e=$e $id") }
    }
  }

  test("aggregate on empty input is empty") {
    assert(aggregate(Nil, 1.0, WsFull).isEmpty)
  }

  test("aggregation is deterministic") {
    val r = rows(30, i => IndexedSeq("a" + (i % 3), "a" + (i % 2), ""))
    assert(aggregate(r, 0.8, WsFull) == aggregate(r, 0.8, WsFull))
  }
}
