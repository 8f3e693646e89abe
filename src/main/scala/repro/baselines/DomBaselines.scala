package repro.baselines

import scala.util.matching.Regex
import repro.docs.{Naming, RenderedDoc}
import repro.util.Rng

/** The Table-2 baseline family: systems that treat web extraction as
  * labeling HTML-DOM *leaf nodes*, trained with (distant) supervision on
  * in-domain pages from other sites of the same vertical.
  *
  * We implement the assumption class each cited system embodies rather than
  * the (unreleased) models themselves:
  *
  *  - **ZeroShotCeres-like** [43]: zero-shot; relates a value leaf to its
  *    adjacent label leaf and matches the label text against the requested
  *    attribute. No training.
  *  - **RoBERTa-Base-like** [21]: learns label-text -> attribute from the
  *    training sites; exact label matching only, so cross-site label
  *    wording drift breaks it.
  *  - **RoBERTa-Structural-like** [21]: adds structural features — also
  *    matches when the label's token *set* is equal after normalization.
  *  - **DOM-LM-like** [21]: the strongest; fuzzy token-overlap label
  *    matching (Jaccard ≥ 0.5) generalizes across wording drift.
  *
  * All four share the DOM-leaf blind spot the paper highlights: attributes
  * rendered in `<title>`, `<meta>` or `href` targets are invisible to them,
  * while Evaporate reads the whole document.
  */
object DomBaselines {

  private val LeafRow =
    new Regex("(?s)<th[^>]*>\\s*([^<>]{1,60}?)\\s*</th>\\s*<(td|dd|div|span)[^>]*>(.*?)</\\2>")
  private val FirstLeaf = new Regex(">([^<>]+)<")

  /** A page's leaf rows: (labelText, valueText) pairs for every label/value leaf row.
    *
    * These systems assume an attribute value is a *single leaf node* of the
    * DOM (the paper's explicit critique): for compound values spread across
    * nested spans/anchors only the first leaf's text is extracted, so
    * infobox-style compound attributes come back truncated.
    */
  def leafPairs(html: String): Seq[(String, String)] =
    LeafRow.findAllMatchIn(html).map { m =>
      val inner = m.group(3)
      val value =
        if (!inner.contains("<")) inner.trim
        else {
          val beforeTag = inner.takeWhile(_ != '<').trim
          if (beforeTag.nonEmpty) beforeTag
          else FirstLeaf.findFirstMatchIn(inner).map(_.group(1).trim).getOrElse("")
        }
      (m.group(1).trim, value)
    }.filter(_._2.nonEmpty).toSeq

  sealed trait Model {
    def name: String
    /** Probability a correct candidate is still mispredicted — residual
      * model error beyond the structural assumptions (fit capacity).
      */
    def dropProb: Double
    /** Probability a label is *consistently* resolved to the wrong
      * attribute on an unseen site (template shift confuses the classifier
      * for every page of the site alike).
      */
    def confuseProb: Double
  }
  case object ZeroShotCeres     extends Model { val name = "ZeroShot Ceres";     val dropProb = 0.20; val confuseProb = 0.0  }
  case object RobertaBase       extends Model { val name = "RoBERTa-Base";       val dropProb = 0.15; val confuseProb = 0.30 }
  case object RobertaStructural extends Model { val name = "RoBERTa-Structural"; val dropProb = 0.10; val confuseProb = 0.22 }
  case object DomLM             extends Model { val name = "DOM-LM";             val dropProb = 0.10; val confuseProb = 0.22 }

  /** Learned mapping from (normalized) label text to attribute name. */
  final case class LabelMap(byLabel: Map[String, String]) {

    /** Each learned label's token set and attribute, in `byLabel` order. */
    private lazy val keyed: Seq[(Set[String], String)] =
      byLabel.toSeq.map { case (k, a) => (Naming.normalize(k).split(" ").toSet, a) }

    /** Resolve a rendered label to an attribute under a model's matching
      * power: exact (Base), token-set (Structural), fuzzy (DOM-LM).
      */
    def resolve(label: String, model: Model): Option[String] = {
      val norm = Naming.normalize(label)
      val exact = byLabel.get(norm)
      lazy val lt = norm.split(" ").toSet
      model match {
        case RobertaBase => exact
        case RobertaStructural =>
          exact.orElse(keyed.collectFirst { case (kt, a) if kt == lt => a })
        case DomLM =>
          exact.orElse {
            keyed.flatMap { case (kt, a) =>
              val j  = if (lt.isEmpty && kt.isEmpty) 0.0
                       else lt.intersect(kt).size.toDouble / lt.union(kt).size
              if (j >= 0.5) Some((j, a)) else None
            }.sortBy(-_._1).headOption.map(_._2)
          }
        case ZeroShotCeres => exact // unused: zero-shot path matches attr directly
      }
    }
  }

  /** Distant supervision (as in [42]): align gold values against the leaf
    * rows of pages of the *training* sites to learn which label wordings
    * carry each attribute.
    */
  def train(pages: Seq[(RenderedDoc, Seq[(String, String)])]): LabelMap = {
    val aligned = for {
      (doc, pairs)  <- pages
      (attr, value) <- doc.gold.toSeq
      (label, _)    <- pairs.find(_._2 == value)
    } yield (Naming.normalize(label), attr)
    // Majority attribute per label, require ≥2 aligned examples.
    LabelMap(aligned.groupBy(_._1).flatMap { case (label, votes) =>
      val (attr, n) = votes.groupMapReduce(_._2)(_ => 1)(_ + _).maxBy { case (a, c) => (c, a) }
      if (n >= 2) Some(label -> attr) else None
    })
  }

  /** OpenIE: emit every resolvable leaf row of page `id` as a tuple.
    * ZeroShotCeres emits the raw label wording as the attribute name (it has
    * no training to canonicalize against).
    */
  def openExtract(id: String, leaves: Seq[(String, String)], model: Model, labels: LabelMap,
                  seed: Long): Seq[(String, String, String)] = {
    val rng = Rng(seed).derive("dom", id, model.name)
    leaves.flatMap { case (label, value) =>
      val attr = model match {
        case ZeroShotCeres => Some(Naming.normalize(label))
        case m             => labels.resolve(label, m).map(confuse(_, label, m, labels, seed))
      }
      attr.flatMap { a =>
        if (rng.derive("drop", a, value).bool(model.dropProb)) None
        else Some((id, a, value))
      }
    }
  }

  /** Consistent per-(model, label) misresolution: when the classifier is
    * confused by an unseen site's wording, it is confused the same way on
    * every page — an entire predicted column carries the wrong attribute.
    */
  private def confuse(attr: String, label: String, model: Model,
                      labels: LabelMap, seed: Long): String = {
    val rng = Rng(seed).derive("confuse", model.name, Naming.normalize(label))
    if (!rng.derive("hit").bool(model.confuseProb)) attr
    else {
      val others = labels.byLabel.values.toSeq.distinct.filterNot(_ == attr).sorted
      if (others.isEmpty) attr else rng.derive("pick").pick(others)
    }
  }

  /** ClosedIE: each of `attrs` from page `id`'s leaf rows ("" where none
    * is found), each row's label resolved once.
    */
  def closedExtract(id: String, leaves: Seq[(String, String)], attrs: Seq[String], model: Model,
                    labels: LabelMap, seed: Long): Seq[String] = {
    val matchers: Seq[(String => Boolean, String)] = leaves.map { case (l, v) =>
      val matches: String => Boolean = model match {
        case ZeroShotCeres =>
          val ln = Naming.normalize(l)
          at => ln == at || ln.contains(at) || at.contains(ln)
        case m =>
          val resolved = labels.resolve(l, m).map(Naming.normalize)
          at => resolved.contains(at)
      }
      (matches, v)
    }
    attrs.map { attr =>
      val at   = Naming.normalize(attr)
      val drop = Rng(seed).derive("domc", id, model.name, attr).derive("drop")
      matchers.collectFirst { case (matches, v) if matches(at) => v }
        .filterNot(_ => drop.bool(model.dropProb)).getOrElse("")
    }
  }
}
