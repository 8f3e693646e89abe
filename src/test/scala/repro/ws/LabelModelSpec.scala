package repro.ws

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rng

class LabelModelSpec extends AnyFunSuite {

  /** Build a synthetic vote matrix: `nDocs` docs with true labels, voters
    * with known accuracies (vote truth with p, else a wrong value).
    */
  private def votes(nDocs: Int, accs: Seq[Double], seed: Long,
                    abstainProb: Double = 0.0, sharedWrong: Boolean = false)
      : (IndexedSeq[IndexedSeq[Option[String]]], IndexedSeq[String]) = {
    val truth = (0 until nDocs).map(d => s"v${Rng(seed).derive("t", d).int(3)}")
    val m = (0 until nDocs).map { d =>
      accs.indices.map { j =>
        val r = Rng(seed).derive("vote", d, j)
        if (r.derive("abs").bool(abstainProb)) None
        else if (r.derive("acc").bool(accs(j))) Some(truth(d))
        // Per-voter wrong values model uncorrelated errors (the label
        // model's independence regime); sharedWrong=true models voters that
        // coordinate on the same mistake — where majority vote breaks.
        else if (sharedWrong) Some("wrong")
        else Some(s"wrong$j-" + r.derive("w").int(8))
      }.toIndexedSeq
    }
    (m, truth)
  }

  /** `row`'s weighted prediction: "" when every function abstained. */
  private def predict(row: IndexedSeq[Option[String]], w: Array[Double]): String = {
    val m = VoteMatrix.of(IndexedSeq(row), row.length)
    m.value(LabelModel.predict(m, 0, w))
  }

  test("fitAccuracies recovers the ordering of voter quality") {
    val accs = Seq(0.95, 0.9, 0.85, 0.55, 0.3)
    val (m, _) = votes(300, accs, 1)
    val est = LabelModel.fit(VoteMatrix.of(m, accs.size))
    assert(est(0) > est(3), s"est=${est.toSeq}")
    assert(est(1) > est(4), s"est=${est.toSeq}")
  }

  test("fitAccuracies gives high estimates to high-agreement voters") {
    val (m, _) = votes(300, Seq(0.9, 0.9, 0.9), 2)
    val est = LabelModel.fit(VoteMatrix.of(m, 3))
    assert(est.forall(_ > 0.6), est.toSeq.toString)
  }

  test("fitAccuracies clamps into (0.5, 1) so log-odds weights stay sane") {
    val (m, _) = votes(200, Seq(0.9, 0.2, 0.5), 3)
    val est = LabelModel.fit(VoteMatrix.of(m, 3))
    assert(est.forall(a => a >= 0.51 && a <= 0.98))
  }

  test("fitAccuracies handles empty input") {
    assert(LabelModel.fit(VoteMatrix.of(IndexedSeq.empty, 0)).isEmpty)
  }

  test("fitAccuracies handles the two-voter fallback (no triplets)") {
    // With only two voters, quality is unidentifiable without labels — the
    // model must split the observed agreement symmetrically and stay sane.
    val (m, _) = votes(100, Seq(0.95, 0.4), 4)
    val est = LabelModel.fit(VoteMatrix.of(m, 2))
    assert(est.length == 2)
    assert(math.abs(est(0) - est(1)) < 1e-9, est.toSeq.toString)
    assert(est.forall(a => a >= 0.51 && a <= 0.98))
  }

  test("weights are log-odds of accuracies") {
    val w = LabelModel.weights(Array(0.9, 0.6))
    assert(math.abs(w(0) - math.log(9.0)) < 1e-9)
    assert(w(0) > w(1))
  }

  test("predict returns the weighted majority") {
    val w = Array(2.0, 1.0, 1.0)
    // Voter 0 (weight 2) says A, voters 1+2 say B: tie broken lexicographically.
    assert(predict(IndexedSeq(Some("A"), Some("B"), Some("B")), w) == "A")
    // Against three voters, weight wins only when strictly greater.
    val w2 = Array(5.0, 1.0, 1.0)
    assert(predict(IndexedSeq(Some("A"), Some("B"), Some("B")), w2) == "A")
  }

  test("predict ignores abstentions") {
    val w = Array(1.0, 1.0, 1.0)
    assert(predict(IndexedSeq(None, Some("X"), None), w) == "X")
  }

  test("predict on all-abstain rows returns empty") {
    assert(predict(IndexedSeq(None, None), Array(1.0, 1.0)) == "")
  }

  test("weighted aggregation beats majority vote when voter quality varies") {
    // Two reliable voters vs three weak voters that coordinate on the same
    // wrong value — majority vote follows the coordinated mistake, the
    // label model downweights it.
    val accs = Seq(0.95, 0.95, 0.30, 0.30, 0.30)
    val (m, truth) = votes(400, accs, 5, sharedWrong = true)
    val est = LabelModel.fit(VoteMatrix.of(m, accs.size))
    val w   = LabelModel.weights(est)
    val wsCorrect = m.indices.count(d => predict(m(d), w) == truth(d))
    val mvCorrect = m.indices.count(d => predict(m(d), Array.fill(accs.size)(1.0)) == truth(d))
    assert(wsCorrect > mvCorrect, s"ws=$wsCorrect mv=$mvCorrect")
  }

  test("high-precision low-recall voters are exploited when abstentions are marked") {
    // A narrow voter: abstains 70% of the time, near-perfect when voting.
    val nDocs = 500
    val truth = (0 until nDocs).map(d => s"v${Rng(9).derive("t", d).int(3)}")
    val m = (0 until nDocs).map { d =>
      val r = Rng(9).derive("m", d)
      val narrow = if (r.derive("abs").bool(0.7)) None else Some(truth(d))
      val noisy1 = if (r.derive("n1").bool(0.55)) Some(truth(d)) else Some("w1")
      val noisy2 = if (r.derive("n2").bool(0.55)) Some(truth(d)) else Some("w2")
      IndexedSeq(narrow, noisy1, noisy2)
    }
    val est = LabelModel.fit(VoteMatrix.of(m, 3))
    assert(est(0) >= est(1) && est(0) >= est(2),
      s"narrow voter should get top accuracy: ${est.toSeq}")
  }
}
