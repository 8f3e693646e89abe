package repro.docs

import java.util.regex.Pattern
import repro.fn.ExtractorSet
import repro.util.Rng

/** Specification of one attribute of a data-lake setting.
  *
  * @param name     canonical (gold) attribute name, lowercase
  * @param aliases  alternative surface forms the simulated LLM may use when
  *                 it rewords the attribute during open extraction (the
  *                 paper observes ~4 surface forms per attribute)
  * @param coverage fraction of documents that contain the attribute — the
  *                 paper prioritizes high-coverage attributes and Algorithm 1
  *                 keys its abstention logic on this via the estimate `e`
  * @param valueGen deterministic value generator (seeded per doc+attr)
  * @param variants formatting variants with sampling weights; multiple
  *                 variants are what make single synthesized functions
  *                 narrow (high precision / low recall)
  * @param section  which document section the field is rendered in (later
  *                 sections land in later LLM context chunks, where direct
  *                 extraction misses more)
  */
final case class AttrSpec(
    name: String,
    aliases: Seq[String],
    coverage: Double,
    valueGen: Rng => String,
    variants: Seq[(Style, Double)],
    section: Int = 0,
) {
  require(variants.nonEmpty, s"attribute '$name' needs at least one variant")
  require(coverage > 0 && coverage <= 1.0, s"attribute '$name' coverage out of range")
}

/** One evaluation setting = one data lake (the paper has 16).
  *
  * @param group  reporting group used in the paper's tables
  *               ("FDA" | "Enron Emails" | "Wiki NBA" | "SWDE Movie" | "SWDE University")
  * @param fillerWordsPerSection size of the non-field prose per section —
  *               controls document length, hence chunk counts and token cost
  */
final case class Setting(
    name: String,
    group: String,
    format: String, // "TXT" | "HTML"
    attrs: Seq[AttrSpec],
    fillerWordsPerSection: Int,
    nSections: Int,
) {
  require(attrs.map(_.name).distinct.size == attrs.size, s"duplicate attribute names in $name")

  def isHtml: Boolean = format == "HTML"

  /** Every attribute's variant readers, in order, as one set: `DocParser` reads documents with it. */
  private[docs] lazy val readers: ExtractorSet = new ExtractorSet(attrs.flatMap(_.variants.map(_._1.reader)))

  /** Gold attribute names (the `k` used for Pair-F1@k and schema F1@k). */
  def goldAttrs: Seq[String] = attrs.map(_.name)

  /** The attribute `n` names after `Naming.normalize`: the first whose name
    * matches, else the first with a matching alias.
    */
  def attrByName(n: String): Option[AttrSpec] = byName.get(Naming.normalize(n))

  /** Every normalized name and alias, each for the first attribute that
    * claims it, every name before any alias (`toMap` keeps a key's last
    * binding, so the claims go in reversed).
    */
  private lazy val byName: Map[String, AttrSpec] =
    (attrs.map(a => a.name -> a) ++ attrs.flatMap(a => a.aliases.map(_ -> a))).reverse
      .map { case (n, a) => Naming.normalize(n) -> a }.toMap
}

/** Attribute-name normalization shared by the simulated LLM, schema
  * synthesis, and the metrics (lowercase, alphanumeric words).
  */
object Naming {
  private val NonAlnum = Pattern.compile("[^a-z0-9]+")

  def normalize(s: String): String =
    NonAlnum.matcher(s.toLowerCase).replaceAll(" ").trim
}
