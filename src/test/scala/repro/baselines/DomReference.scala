package repro.baselines

import repro.baselines.DomBaselines._
import repro.docs.{Naming, RenderedDoc}
import repro.util.Rng

/** `DomBaselines.closedExtract` and `LabelMap.resolve` as they were first
  * written: one attribute per call, the page's leaf rows read on every call,
  * and every learned label normalized and tokenized on every resolve. The
  * reference the one-read batch call and the pre-tokenized label map must
  * equal.
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
}
