package repro.llm

import java.util.regex.Pattern
import repro.docs.{DocParser, Naming, Setting}
import repro.util.{Rng, Tokens}

/** One attribute-value pair as emitted by the LLM (surface-form name). */
final case class LmPair(attr: String, value: String)

/** Result of an open-extraction call on one document. */
final case class OpenExtraction(pairs: Seq[LmPair], tokens: Long)

/** Simulated large language model.
  *
  * The simulation grounds every answer in one *real read* of the document
  * per extraction call (`DocParser.read` — perfect reading comprehension:
  * each field format's `Style.reader`, run by the same extractor
  * interpreter as the synthesized functions), then applies the noise
  * processes the paper measures for each provider (misses that grow with
  * chunk depth, attribute rewording, value mangling, hallucinated
  * attributes, chat-style refusals). It never reads the generator's gold
  * map. All calls are deterministic in (seed, docId, call kind) and return
  * the number of tokens "processed" (prompt + chunk + generation), which is
  * the paper's cost metric.
  *
  * Serializable so extraction calls can run inside Spark tasks: Direct's
  * lake pass calls it per document and sums the token counts per partition.
  */
final case class SimLM(profile: Profile, setting: Setting, seed: Long) extends Serializable {

  /** Context window in characters (~600 tokens) — documents longer than
    * this are processed chunk by chunk, as in §3.1.
    */
  val windowChars: Int = 2400

  private def nChunks(text: String): Int =
    math.max(1, math.ceil(text.length.toDouble / windowChars).toInt)

  /** Hallucinated attribute names: plausible-but-unwanted fields the model
    * invents (9.7/doc for davinci). The pool is the cross product of base
    * nouns and modifiers, so individual junk names stay low-frequency
    * across documents (they are inconsistent inventions, not a stable
    * vocabulary — which is why frequency ranking mostly beats them). Names
    * colliding with real attributes or aliases are excluded at draw time.
    */
  private val junkPool: Vector[String] = {
    val bases = Vector(
      "document type", "summary", "notes", "page count", "reference",
      "contact", "status", "category", "subject area", "identifier", "author",
      "keywords", "abstract", "version", "source", "format", "language",
      "length", "date created", "region", "department", "priority", "topic",
      "section", "header", "footer", "code", "label", "comments", "remarks")
    val mods = Vector("", "primary ", "secondary ", "internal ", "related ", "additional ")
    for (m <- mods; b <- bases) yield m + b
  }

  private val realNames: Set[String] =
    setting.attrs.flatMap(a => a.name +: a.aliases).map(Naming.normalize).toSet

  /** `junkPool`, each name `None` where it collides with a real one. */
  private val junkNames: Vector[Option[String]] =
    junkPool.map(n => if (realNames.contains(Naming.normalize(n))) None else Some(n))

  private def junkName(rng: Rng): Option[String] = rng.pick(junkNames)

  /** Value-mangling probability scales with value length: short canonical
    * values (header tokens, codes) are rarely corrupted, long free-text
    * values (indications-for-use sentences) often are.
    */
  private def valueNoiseProb(v: String): Double = {
    val toks = SimLM.Whitespace.split(v).length
    profile.valueNoise * math.min(1.5, 0.35 + toks / 6.0)
  }

  private def mangleValue(v: String, rng: Rng): String = {
    val toks = SimLM.Whitespace.split(v)
    rng.derive("mode").int(3) match {
      case 0 if toks.length > 1 => toks.dropRight(1).mkString(" ")
      case 1 if toks.length > 2 => toks.take(2).mkString(" ")
      case _                    => v + " (see report)"
    }
  }

  /** §3.1 / E.1 — open extraction: chunk the document, run the fixed prompt
    * per chunk, return all (attribute, value) pairs the model produces.
    */
  def openExtract(docId: String, text: String): OpenExtraction = {
    val rng    = Rng(seed).derive("direct", docId)
    val chunks = nChunks(text)
    val refused =
      (0 until chunks).filter(c => rng.derive("refuse", c).bool(profile.refusalProb)).toSet

    val fields = DocParser.read(setting, text)
    val kept = fields.flatMap { case (spec, f) =>
      val chunk = math.min(chunks - 1, f.offset / windowChars)
      if (refused.contains(chunk)) None
      else {
        val pMiss = math.min(0.85, profile.missBase + profile.missPerChunk * chunk)
        if (rng.derive("miss", f.attr).bool(pMiss)) None
        else {
          val name =
            if (spec.aliases.nonEmpty && rng.derive("alias", f.attr).bool(profile.aliasProb))
              rng.derive("aliaspick", f.attr).pick(spec.aliases)
            else spec.name
          val value =
            if (rng.derive("vnoise", f.attr).bool(valueNoiseProb(f.value)))
              mangleValue(f.value, rng.derive("mangle", f.attr))
            else f.value
          Some(LmPair(name, value))
        }
      }
    }

    val hallu = (0 until chunks).filterNot(refused.contains).flatMap { c =>
      val hrng = rng.derive("hallu", c)
      val count = profile.halluPerChunk.toInt +
        (if (hrng.derive("frac").bool(profile.halluPerChunk % 1.0)) 1 else 0)
      (0 until count).flatMap { i =>
        junkName(hrng.derive("name", i)).map { n =>
          val v = (0 until 2 + hrng.derive("vlen", i).int(3))
            .map(j => hrng.derive("vw", i, j).pick(junkValueWords)).mkString(" ")
          LmPair(n, v)
        }
      }
    }

    val pairs  = kept ++ hallu
    val genOut = pairs.map(p => Tokens.count(p.attr) + Tokens.count(p.value) + 2L).sum
    val tokens = chunks.toLong * Prompts.openTokens + Tokens.count(text) + genOut
    OpenExtraction(pairs, tokens)
  }

  private val junkValueWords = Vector(
    "pending", "internal", "standard", "general", "unspecified", "routine",
    "archived", "filed", "processed", "complete")

  /** E.2 — closed extraction of named attributes from one document; the
    * high-quality LLM labels Algorithm 1 scores candidate functions against,
    * and the ClosedIE task itself. One `DocParser.read` of the document
    * answers every name (or alias), none when `attrNames` is empty; each
    * answer, in `attrNames` order, is the value and the tokens of its own
    * prompt, with noise keyed by (docId, normalized name). Only the
    * keyword-bearing chunk is charged, which reproduces Table 7's
    * per-attribute cost profile.
    */
  def closedExtract(docId: String, text: String, attrNames: Seq[String]): Seq[(String, Long)] =
    if (attrNames.isEmpty) Nil
    else {
      val base   = Prompts.closedTokens + math.min(600L, Tokens.count(text))
      val fields = DocParser.read(setting, text).map { case (a, f) => a.name -> f.value }.toMap
      attrNames.map { name =>
        val rng = Rng(seed).derive("closed", docId, Naming.normalize(name))
        setting.attrByName(name).flatMap(a => fields.get(a.name))
          .filterNot(_ => rng.derive("miss").bool(profile.missClosed)) match {
          case None => ("", base)
          case Some(_) if rng.derive("refuse").bool(profile.refusalProb * 0.5) =>
            ("I'm not sure, please give me more information.", base + 12L)
          case Some(value) =>
            val out =
              if (rng.derive("vnoise").bool(valueNoiseProb(value) * 0.6)) mangleValue(value, rng.derive("mangle"))
              else value
            (out, base + Tokens.count(out))
        }
      }
    }

  /** `closedExtract` of one name; perfbench's probes time it per call. */
  def closedExtract(docId: String, text: String, attrName: String): (String, Long) =
    closedExtract(docId, text, Seq(attrName)).head

  /** §3.2.1 — re-rank candidate schema attributes: the model keeps names it
    * judges useful. Genuine attributes survive with `keepRealProb`,
    * hallucinated ones with `keepJunkProb`.
    */
  def rerank(names: Seq[String]): (Set[String], Long) = {
    val rng = Rng(seed).derive("rerank")
    val kept = names.filter { n =>
      val isReal = realNames.contains(Naming.normalize(n))
      val p      = if (isReal) profile.keepRealProb else profile.keepJunkProb
      rng.derive(Naming.normalize(n)).bool(p)
    }.toSet
    val tokens = Prompts.rerankTokens + names.map(Tokens.count(_) + 1).sum +
      kept.toSeq.map(Tokens.count(_) + 1).sum
    (kept, tokens)
  }

  /** E.4 — validate an attribute given a sample of its extracted values:
    * "No" for all-empty or implausible samples. Used by Evaporate-Code+ to
    * drop attributes whose surviving functions extract nothing.
    */
  def validateAttr(attrName: String, values: Seq[String]): (Boolean, Long) = {
    val nonEmpty = values.count(_.nonEmpty)
    val tokens   = values.map(v => Prompts.validateTokens + Tokens.count(v) + 1L).sum
    (nonEmpty * 2 >= values.size && nonEmpty > 0, tokens)
  }
}

object SimLM {
  /** What `String.split("\\s+")` splits on, compiled once. */
  private val Whitespace = Pattern.compile("\\s+")
}
