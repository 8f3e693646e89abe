package repro.baselines

import repro.baselines.DomBaselines._
import repro.docs.{Naming, RenderedDoc}
import repro.util.Rng

/** `DomBaselines.closedExtract`, `openExtract`, `train` and
  * `LabelMap.resolve` as they were first written: one attribute per closed
  * call, the page's leaf rows read by every call, and every learned label
  * normalized and tokenized on every resolve. The reference the baselines
  * over leaf rows read once and the pre-tokenized label map must equal.
  */
object DomReference {

  private def tokens(s: String): Set[String] = Naming.normalize(s).split(" ").toSet

  def resolve(labels: LabelMap, label: String, model: Model): Option[String] = {
    val byLabel = labels.byLabel
    val exact   = byLabel.get(Naming.normalize(label))
    model match {
      case RobertaBase => exact
      case RobertaStructural =>
        exact.orElse {
          val lt = tokens(label)
          byLabel.collectFirst { case (k, a) if tokens(k) == lt => a }
        }
      case DomLM =>
        exact.orElse {
          val lt = tokens(label)
          byLabel.toSeq.flatMap { case (k, a) =>
            val kt = tokens(k)
            val j  = if (lt.isEmpty && kt.isEmpty) 0.0
                     else lt.intersect(kt).size.toDouble / lt.union(kt).size
            if (j >= 0.5) Some((j, a)) else None
          }.sortBy(-_._1).headOption.map(_._2)
        }
      case ZeroShotCeres => exact
    }
  }

  def closedExtract(doc: RenderedDoc, attr: String, model: Model, labels: LabelMap,
                    seed: Long): String = {
    val rng   = Rng(seed).derive("domc", doc.id, model.name, attr)
    val pairs = leafPairs(doc.text)
    val hit = model match {
      case ZeroShotCeres =>
        val at = Naming.normalize(attr)
        pairs.find { case (l, _) =>
          val ln = Naming.normalize(l)
          ln == at || ln.contains(at) || at.contains(ln)
        }
      case m =>
        pairs.find { case (l, _) => resolve(labels, l, m).exists(Naming.normalize(_) == Naming.normalize(attr)) }
    }
    hit match {
      case Some((_, v)) if !rng.derive("drop").bool(model.dropProb) => v
      case _                                                        => ""
    }
  }

  def train(trainingDocs: Seq[RenderedDoc]): LabelMap = {
    val votes = scala.collection.mutable.Map.empty[(String, String), Int]
    trainingDocs.foreach { doc =>
      val pairs = leafPairs(doc.text)
      doc.gold.foreach { case (attr, value) =>
        pairs.find(_._2 == value).foreach { case (label, _) =>
          val key = (Naming.normalize(label), attr)
          votes(key) = votes.getOrElse(key, 0) + 1
        }
      }
    }
    val byLabel = votes.toSeq
      .groupBy { case ((label, _), _) => label }
      .flatMap { case (label, entries) =>
        val best = entries.maxBy { case ((_, a), c) => (c, a) }
        if (best._2 >= 2) Some(label -> best._1._2) else None
      }
    LabelMap(byLabel.toMap)
  }

  def openExtract(doc: RenderedDoc, model: Model, labels: LabelMap,
                  seed: Long): Seq[(String, String, String)] = {
    val rng = Rng(seed).derive("dom", doc.id, model.name)
    leafPairs(doc.text).flatMap { case (label, value) =>
      val attr = model match {
        case ZeroShotCeres => Some(Naming.normalize(label))
        case m             => labels.resolve(label, m).map(confuse(_, label, m, labels, seed))
      }
      attr.flatMap { a =>
        if (rng.derive("drop", a, value).bool(model.dropProb)) None
        else Some((doc.id, a, value))
      }
    }
  }

  private def confuse(attr: String, label: String, model: Model,
                      labels: LabelMap, seed: Long): String = {
    val rng = Rng(seed).derive("confuse", model.name, Naming.normalize(label))
    if (!rng.derive("hit").bool(model.confuseProb)) attr
    else {
      val others = labels.byLabel.values.toSeq.distinct.filterNot(_ == attr).sorted
      if (others.isEmpty) attr else rng.derive("pick").pick(others)
    }
  }
}
