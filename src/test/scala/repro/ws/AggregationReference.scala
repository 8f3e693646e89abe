package repro.ws

import repro.ws.Aggregation.{Mode, MajorityVote, Tau, VoteBuckets, WsFull}

/** Steps 6–7 of Algorithm 1 as they were written over `Option[String]`
  * votes, before they ran over interned ids: the reference the
  * [[VoteMatrix]] kernel must equal, value for value and bit for bit.
  */
object AggregationReference {

  def interpretVote(raw: String, e: Double, mode: Mode): Option[String] =
    if (raw.nonEmpty) Some(raw)
    else mode match {
      case WsFull if e > Tau => None
      case _                 => Some("")
    }

  def bucketRow(row: IndexedSeq[Option[String]], b: Int = VoteBuckets): IndexedSeq[Option[String]] = {
    val counts = row.flatten.groupBy(identity).view.mapValues(_.size).toMap
    val top = counts.toSeq.sortBy { case (v, c) => (-c, v) }.take(b).map(_._1).toSet
    row.map(_.filter(top.contains))
  }

  def aggregate(rows: Seq[(String, IndexedSeq[String])], e: Double, mode: Mode): Map[String, String] = {
    if (rows.isEmpty) return Map.empty
    val nFns = rows.head._2.length
    val interpreted: IndexedSeq[(String, IndexedSeq[Option[String]])] =
      rows.toIndexedSeq.map { case (id, raw) =>
        id -> bucketRow(raw.map(interpretVote(_, e, mode)))
      }

    val w: Array[Double] = mode match {
      case MajorityVote => Array.fill(nFns)(1.0)
      case _            => LabelModel.weights(fitAccuracies(interpreted.map(_._2), nFns))
    }

    interpreted.map { case (id, row) => id -> predict(row, w) }.toMap
  }

  private def pairAgreement(vi: IndexedSeq[Option[String]],
                            vj: IndexedSeq[Option[String]]): Double = {
    var agree = 0; var both = 0
    var d = 0
    while (d < vi.length) {
      (vi(d), vj(d)) match {
        case (Some(a), Some(b)) => both += 1; if (a == b) agree += 1
        case _                  => ()
      }
      d += 1
    }
    if (both < 3) -1.0 else agree.toDouble / both
  }

  def fitAccuracies(votes: IndexedSeq[IndexedSeq[Option[String]]], nFns: Int): Array[Double] = {
    if (votes.isEmpty || nFns == 0) return Array.empty
    val byFn: IndexedSeq[IndexedSeq[Option[String]]] =
      (0 until nFns).map(j => votes.map(row => if (j < row.length) row(j) else None))

    val p = Array.fill(nFns, nFns)(-1.0)
    for (i <- 0 until nFns; j <- (i + 1) until nFns) {
      val a = pairAgreement(byFn(i), byFn(j))
      p(i)(j) = a; p(j)(i) = a
    }

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
          sorted(sorted.size / 2)
        } else if (nFns == 2) {
          val agree = math.max(0.0, p(i)(1 - i))
          math.sqrt(agree)
        } else {
          val plur = votes.map { row =>
            val cast = row.flatten
            if (cast.isEmpty) None
            else Some(cast.groupBy(identity).maxBy { case (v, g) => (g.size, v) }._1)
          }
          var agree = 0; var n = 0
          votes.indices.foreach { d =>
            (byFn(i)(d), plur(d)) match {
              case (Some(v), Some(pl)) => n += 1; if (v == pl) agree += 1
              case _                   => ()
            }
          }
          if (n == 0) 0.5 else agree.toDouble / n
        }
      math.min(0.98, math.max(0.51, a))
    }.toArray
  }

  def predict(row: IndexedSeq[Option[String]], w: Array[Double]): String = {
    val scores = scala.collection.mutable.Map.empty[String, Double]
    row.indices.foreach { j =>
      row(j).foreach { v =>
        val wj = if (j < w.length) w(j) else 0.0
        scores(v) = scores.getOrElse(v, 0.0) + wj
      }
    }
    if (scores.isEmpty) ""
    else scores.toSeq.minBy { case (v, s) => (-s, v) }._1
  }
}
