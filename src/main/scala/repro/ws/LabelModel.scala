package repro.ws

/** Weak-supervision label model (Appendix D).
  *
  * Models each candidate function as a noisy voter with a latent accuracy.
  * With conditionally independent voters, the pairwise agreement statistics
  * satisfy E[λi λj] = a_i a_j (in ±1 correlation space), so per-voter
  * accuracies are recoverable *without labels* via the closed-form triplet
  * method of Fu et al. [26]:  a_i = sqrt(|g_ij * g_ik / g_jk|).
  *
  * Votes are open-vocabulary strings (the paper's Assumption-3 gap); we use
  * string equality as the agreement signal and a single accuracy per
  * function — the paper's "class-conditional accuracies equal" constraint.
  * An abstention (`None`) is excluded from agreement statistics (the paper's
  * Assumption-1 gap, supplied by Algorithm 1's `e`-based abstention
  * post-processing).
  *
  * The fit and the prediction run over a [[VoteMatrix]], where each distinct
  * value is one `Int` id, so equal ids are equal strings.
  */
object LabelModel {

  /** Estimate per-function accuracies from the vote matrix.
    *
    * In the open-vocabulary extraction setting, chance agreement between
    * two wrong voters is negligible (the value space is huge), so for
    * conditionally independent voters P(agree_ij) ≈ a_i * a_j and the
    * triplet identity becomes a_i = sqrt(p_ij * p_ik / p_jk) — a cleaner
    * fit than the ±1-correlation form used for binary classification.
    *
    * Its sufficient statistics are, for each pair of functions, the
    * documents where both vote and those where they agree (the pairwise
    * agreement p_ij = agree / both, or -1 when support < 3, too little to
    * inform).
    *
    * @return accuracy in (0,1) per function
    */
  private[ws] def fit(m: VoteMatrix): Array[Double] = {
    val nFns = m.nFns
    if (m.nDocs == 0 || nFns == 0) return Array.empty
    val both, agree = Array.ofDim[Int](nFns, nFns)
    var d = 0
    while (d < m.nDocs) {
      var i = 0
      while (i < nFns) {
        val vi = m.vote(d, i)
        if (vi != VoteMatrix.Abstain) {
          var j = i + 1
          while (j < nFns) {
            val vj = m.vote(d, j)
            if (vj != VoteMatrix.Abstain) {
              both(i)(j) += 1
              if (vi == vj) agree(i)(j) += 1
            }
            j += 1
          }
        }
        i += 1
      }
      d += 1
    }
    val p = Array.fill(nFns, nFns)(-1.0)
    for (i <- 0 until nFns; j <- (i + 1) until nFns) {
      val a = if (both(i)(j) < 3) -1.0 else agree(i)(j).toDouble / both(i)(j)
      p(i)(j) = a; p(j)(i) = a
    }
    lazy val plur = plurality(m)

    val eps = 0.05
    (0 until nFns).map { i =>
      val estimates = for {
        j <- 0 until nFns if j != i
        k <- (j + 1) until nFns if k != i
        if p(j)(k) > eps && p(i)(j) > eps && p(i)(k) > eps
      } yield math.sqrt(math.min(1.0, p(i)(j) * p(i)(k) / p(j)(k)))

      val a =
        if (estimates.nonEmpty) {
          val sorted = estimates.sorted
          sorted(sorted.size / 2) // median triplet estimate
        } else if (nFns == 2) {
          // Two voters are unidentifiable without labels: split the observed
          // agreement symmetrically.
          val agree = math.max(0.0, p(i)(1 - i))
          math.sqrt(agree)
        } else {
          // Degenerate agreement graph: fall back to agreement with the
          // per-document plurality (excluding abstentions).
          var agree = 0; var n = 0
          for (d <- 0 until m.nDocs) {
            val v = m.vote(d, i)
            if (v != VoteMatrix.Abstain && plur(d) != VoteMatrix.Abstain) {
              n += 1
              if (v == plur(d)) agree += 1
            }
          }
          if (n == 0) 0.5 else agree.toDouble / n
        }
      // Post-filtering, voters are assumed better than random: clamp into
      // (0.5, 1) so log-odds weights are finite and non-negative.
      math.min(0.98, math.max(0.51, a))
    }.toArray
  }

  /** Each document's plurality vote, abstentions excluded: the most votes,
    * ties toward the larger value string; Abstain when nobody votes.
    */
  private def plurality(m: VoteMatrix): Array[Int] = Array.tabulate(m.nDocs) { d =>
    val votes = (0 until m.nFns).map(m.vote(d, _)).filter(_ != VoteMatrix.Abstain)
    if (votes.isEmpty) VoteMatrix.Abstain
    else votes.groupBy(identity).map { case (v, g) => (v, g.size) }
      .reduce { (a, b) => if (a._2 > b._2 || a._2 == b._2 && m.compareValues(a._1, b._1) > 0) a else b }._1
  }

  /** Log-odds voting weights from accuracies. */
  def weights(accuracies: Array[Double]): Array[Double] =
    accuracies.map(acc => math.log(acc / (1.0 - acc)))

  /** Final prediction for document `d` of `m`: weighted argmax over the
    * document's vote ids, each id's weight summed in function order; a
    * function past `w`'s end weighs 0. Ties break toward the
    * lexicographically smaller value for determinism. Returns Abstain when
    * every function abstained.
    */
  private[ws] def predict(m: VoteMatrix, d: Int, w: Array[Double]): Int = {
    val ids    = new Array[Int](m.nFns)
    val scores = new Array[Double](m.nFns)
    var k      = 0
    var j      = 0
    while (j < m.nFns) {
      val id = m.vote(d, j)
      if (id != VoteMatrix.Abstain) {
        var t = 0
        while (t < k && ids(t) != id) t += 1
        if (t == k) { ids(k) = id; scores(k) = 0.0; k += 1 }
        scores(t) += (if (j < w.length) w(j) else 0.0)
      }
      j += 1
    }
    var best = -1
    var t    = 0
    while (t < k) {
      val c = if (best < 0) 1 else java.lang.Double.compare(scores(t), scores(best))
      if (c > 0 || c == 0 && m.compareValues(ids(t), ids(best)) < 0) best = t
      t += 1
    }
    if (best < 0) VoteMatrix.Abstain else ids(best)
  }
}
