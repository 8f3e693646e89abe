package repro.ws

import repro.eval.Metrics

/** Algorithm 1 — Function Aggregation (Evaporate-Code+, §3.3.2).
  *
  * Steps, as in the paper:
  *  2. collect function + LLM predictions on a sampled D_eval;
  *  3. estimate `e`, the fraction of D_eval where the LLM extracts a value,
  *     to decide whether empty function outputs are *abstentions* (high e:
  *     the attribute is usually present, the function just failed) or
  *     *predictions of no value* (low e);
  *  4. score each function against the LLM labels with Text F1 — over all
  *     eval docs in the low-e regime, only over LLM-non-empty docs in the
  *     high-e regime;
  *  5. filter functions scoring ≤ 0.5 (the classic WS better-than-random
  *     assumption, restored by construction);
  *  6. collect votes on the full lake, post-processing empties per `e`;
  *  7. bucket each document's open-vocabulary votes to the top-b values and
  *     aggregate with the weak-supervision label model.
  *
  * The ablation modes reproduce Table 4's columns.
  */
object Aggregation {

  sealed trait Mode
  /** Off-the-shelf majority vote: all candidates, empties are votes. */
  case object MajorityVote extends Mode
  /** Off-the-shelf WS: label model over all candidates, empties are votes. */
  case object WsRaw extends Mode
  /** WS + filter functions scoring ≤ 0.5 against the LLM labels. */
  case object WsFilter extends Mode
  /** Full Algorithm 1: WS + filtering + e-based abstention handling. */
  case object WsFull extends Mode

  val Tau: Double         = 0.5
  val ScoreFloor: Double  = 0.5
  val TopFunctions: Int   = 10
  val VoteBuckets: Int    = 4

  /** Step 3: e = fraction of eval docs where the LLM extracted a value. */
  def estimateE(lmLabels: Seq[String]): Double =
    if (lmLabels.isEmpty) 0.0 else lmLabels.count(_.nonEmpty).toDouble / lmLabels.size

  /** Step 4: score one function's eval outputs against the LLM labels. */
  def scoreFunction(fnOut: Seq[String], lmLabels: Seq[String], e: Double): Double = {
    require(fnOut.size == lmLabels.size)
    val pairs =
      if (e > Tau) fnOut.zip(lmLabels).filter(_._2.nonEmpty)
      else fnOut.zip(lmLabels)
    if (pairs.isEmpty) 0.0
    else pairs.map { case (f, l) => Metrics.textF1(f, l) }.sum / pairs.size
  }

  /** Steps 4–5: score all candidates; return (kept indices, scores).
    *
    * For the filtering modes this keeps the top-`TopFunctions` by score and
    * then drops any scoring ≤ `ScoreFloor` (an attribute can end up with no
    * surviving functions — it is then excluded from the output table, which
    * is what keeps Code+ precision high across providers, §4.4.2).
    */
  def selectFunctions(evalOutputs: Seq[Seq[String]], lmLabels: Seq[String],
                      e: Double, mode: Mode): (Seq[Int], Seq[Double]) = {
    val scores = evalOutputs.map(out => scoreFunction(out, lmLabels, e))
    mode match {
      case MajorityVote | WsRaw =>
        (evalOutputs.indices, scores)
      case WsFilter | WsFull =>
        val top = scores.zipWithIndex.sortBy { case (s, i) => (-s, i) }.take(TopFunctions)
        (top.filter(_._1 > ScoreFloor).map(_._2).sorted, scores)
    }
  }

  /** Step 6 post-processing: interpret one raw function output.
    *
    * Under full Algorithm 1 with high `e`, empty outputs are abstentions
    * (None); with low `e` they are genuine "no value" votes (Some("")).
    * The ablation modes never abstain — empties are always votes, which is
    * precisely the off-the-shelf-WS weakness the paper identifies.
    */
  def interpretVote(raw: String, e: Double, mode: Mode): Option[String] =
    if (raw.isEmpty && emptyAbstains(e, mode)) None else Some(raw)

  private def emptyAbstains(e: Double, mode: Mode): Boolean = mode == WsFull && e > Tau

  /** Step 6/7 bucketing: keep each document's top-b distinct values by vote
    * count; votes outside the top-b become abstentions.
    */
  def bucketRow(row: IndexedSeq[Option[String]], b: Int = VoteBuckets): IndexedSeq[Option[String]] = {
    val m = VoteMatrix.of(IndexedSeq(row), row.length)
    bucket(m, b)
    row.indices.map(j => if (m.vote(0, j) == VoteMatrix.Abstain) None else row(j))
  }

  /** [[bucketRow]] on every row of `m`, in place: a row keeps the votes for
    * its top-b ids by count, then by value string; its other votes abstain.
    */
  private[ws] def bucket(m: VoteMatrix, b: Int): Unit = {
    val ids    = new Array[Int](m.nFns) // the row's distinct ids
    val counts = new Array[Int](m.nFns)
    def ranksBefore(t: Int, u: Int): Boolean =
      counts(t) > counts(u) || counts(t) == counts(u) && m.compareValues(ids(t), ids(u)) < 0
    for (d <- 0 until m.nDocs) {
      var k = 0
      for (j <- 0 until m.nFns) {
        val id = m.vote(d, j)
        if (id != VoteMatrix.Abstain) {
          var t = 0
          while (t < k && ids(t) != id) t += 1
          if (t == k) { ids(k) = id; counts(k) = 0; k += 1 }
          counts(t) += 1
        }
      }
      if (k > b) {
        val top = (0 until k).sortWith(ranksBefore).take(b).map(ids)
        for (j <- 0 until m.nFns if m.vote(d, j) != VoteMatrix.Abstain && !top.contains(m.vote(d, j)))
          m.abstain(d, j)
      }
    }
  }

  /** Steps 6–7 over interned votes: columns `fns` of `lake`, whose cells are
    * raw function outputs ("" included), with empties post-processed per `e`
    * and `mode`, bucketed, and fit and predicted by [[LabelModel]]. Each
    * document's prediction is an id into `lake`'s values ("" = no value),
    * or Abstain when every function abstained.
    */
  def predict(lake: VoteMatrix, fns: IndexedSeq[Int], e: Double, mode: Mode): Array[Int] = {
    val votes = lake.select(fns, emptyAbstains(e, mode))
    bucket(votes, VoteBuckets)
    val w: Array[Double] = mode match {
      case MajorityVote => Array.fill(votes.nFns)(1.0)
      case _            => LabelModel.weights(LabelModel.fit(votes))
    }
    Array.tabulate(votes.nDocs)(LabelModel.predict(votes, _, w))
  }

  /** Step 7 on raw strings: [[predict]] over `rows` interned into one
    * [[VoteMatrix]] (a cell past a row's end abstains).
    *
    * @param rows docId -> raw outputs of the selected functions (aligned)
    * @return docId -> final extraction ("" = no value predicted); a repeated
    *         docId maps to its last row's
    */
  def aggregate(rows: Seq[(String, IndexedSeq[String])], e: Double, mode: Mode): Map[String, String] = {
    if (rows.isEmpty) return Map.empty
    val docs = rows.toIndexedSeq
    val nFns = docs.head._2.length
    val lake = VoteMatrix(docs.size, nFns) { (d, j) =>
      val raw = docs(d)._2
      if (j < raw.length) raw(j) else null
    }
    val ids = predict(lake, 0 until nFns, e, mode)
    docs.indices.map(d => docs(d)._1 -> lake.value(ids(d))).toMap
  }
}
