package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CodeConfig, EvaporateCode, EvaporateDirect, StructuredView}
import repro.docs.{Corpora, DocGen, Setting}
import repro.eval.Harness
import repro.llm.Profile
import repro.ws.Aggregation

/** How a cell calls `EvaporateCode.run`; the layer probes replay it. */
final case class CodeCall(k: Int, cfg: CodeConfig, givenSchema: Option[Seq[String]])

/** One view: a system call whose returned table is then materialised.
  *
  * @param lakeIdx         document indices the system reads (see [[Lakes]])
  * @param open            open views are scored with Pair F1, closed ones with Text F1
  * @param oneValuePerSlot Code/Code+ views hold at most one value per (doc_id, attr)
  * @param closedAttrs     the given schema of a Direct ClosedIE call
  */
final case class Cell(
    label: String,
    setting: Setting,
    lakeIdx: Seq[Long],
    open: Boolean,
    oneValuePerSlot: Boolean,
    code: Option[CodeCall],
    closedAttrs: Option[Seq[String]],
    run: () => StructuredView,
    gold: () => DataFrame,
) {
  def lakeIds: Seq[String] = lakeIdx.map(DocGen.docId(setting, _))
}

/** A workload: inputs built during set-up, and the cells of one pass. */
trait Workload {
  def name: String
  /** Whether the paper's scoring is part of the timed unit. */
  def scoreInClock: Boolean
  /** About how long one pass takes on a 4-core machine. A run times a fixed
    * number of passes derived from it, so that every run of a workload times
    * the same passes at the same point of JIT warm-up, whatever the speed of
    * the machine at that moment.
    */
  def passSeconds: Double
  /** Builds the inputs. Set-up runs it several times, releasing in between. */
  def prepare(): Unit
  def release(): Unit
  def cells: Seq[Cell]
}

object Workloads {

  val Names: Seq[String] = Seq("lake_scale", "direct_lake", "paper_tables")

  /** Lake sizes. `lakeDocs` overrides every large lake (the self-test uses it). */
  final case class Sizes(lakeScale: Int = 2500, directNba: Int = 1000, directEnron: Int = 2000,
                         paperLake: Int = 100, directSample: Int = 10)

  def apply(name: String, spark: SparkSession, seed: Long, lakeDocs: Option[Int]): Workload = {
    val z = lakeDocs.fold(Sizes())(n => Sizes(n, n, n))
    name match {
      case "lake_scale"   => new LakeScale(spark, seed, z)
      case "direct_lake"  => new DirectLake(spark, seed, z)
      case "paper_tables" => new PaperTables(spark, seed, z)
      case other          => throw new IllegalArgumentException(s"unknown workload '$other'")
    }
  }

  import Lakes.SystemSeed

  /** Evaporate-Code+ (full Algorithm 1) over large lakes that are regenerated
    * on every pass: the fixed LLM plan is small next to rendering, the lake
    * pass, the vote matrix collected to the driver and aggregation.
    */
  final class LakeScale(spark: SparkSession, seed: Long, z: Sizes) extends Workload {
    val name = "lake_scale"
    val scoreInClock = false
    val passSeconds = 5.0
    def prepare(): Unit = ()
    def release(): Unit = ()
    lazy val cells: Seq[Cell] = Seq(Corpora.fda, Corpora.movieSites.head).map { s =>
      val n    = z.lakeScale
      val call = CodeCall(s.goldAttrs.size, CodeConfig(), None)
      Cell(s"${s.name}/code+", s, Lakes.indices(n, seed), open = true, oneValuePerSlot = true,
        Some(call), None,
        () => EvaporateCode.run(spark, s, Lakes.documents(spark, s, n, seed), Profile.davinci,
          SystemSeed, call.k, call.cfg),
        () => Lakes.gold(spark, s, n, seed))
    }
  }

  /** Evaporate-Direct open extraction: the LLM runs on every document, and
    * the function and weak-supervision layers are not used at all.
    */
  final class DirectLake(spark: SparkSession, seed: Long, z: Sizes) extends Workload {
    val name = "direct_lake"
    val scoreInClock = false
    val passSeconds = 3.5
    def prepare(): Unit = ()
    def release(): Unit = ()
    lazy val cells: Seq[Cell] =
      Seq(Corpora.nba -> z.directNba, Corpora.enron -> z.directEnron).map { case (s, n) =>
        Cell(s"${s.name}/direct", s, Lakes.indices(n, seed), open = true, oneValuePerSlot = false,
          None, None,
          () => EvaporateDirect.run(spark, s, Lakes.documents(spark, s, n, seed), Profile.davinci,
            SystemSeed, s.goldAttrs.size),
          () => Lakes.gold(spark, s, n, seed))
      }
  }

  /** The reproduction's own traffic on a cached 100-document FDA lake: the
    * eight scored cells of one setting in Tables 1, 3 and 4. One setting, not
    * one per reporting group, so that a run can time every cell twice within
    * the benchmark's time budget.
    */
  final class PaperTables(spark: SparkSession, seed: Long, z: Sizes) extends Workload {
    val name = "paper_tables"
    val scoreInClock = true
    val passSeconds = 9.0
    private val settings = Seq(Corpora.fda)
    private var lakes = Map.empty[String, (DataFrame, DataFrame)]

    /** Caches each lake's documents and gold, as `Harness.lake` does. */
    def prepare(): Unit =
      lakes = settings.map { s =>
        val docs = Lakes.documents(spark, s, z.paperLake, seed).cache()
        val gold = Lakes.gold(spark, s, z.paperLake, seed).cache()
        docs.count(); gold.count()
        s.name -> (docs, gold)
      }.toMap

    def release(): Unit = {
      lakes.values.foreach { case (d, g) => d.unpersist(); g.unpersist() }
      lakes = Map.empty
    }

    private val modes = Seq(
      "mv" -> Aggregation.MajorityVote, "ws" -> Aggregation.WsRaw,
      "ws_filter" -> Aggregation.WsFilter, "ws_full" -> Aggregation.WsFull)

    lazy val cells: Seq[Cell] = settings.flatMap { s =>
      def docs = lakes(s.name)._1
      def gold = lakes(s.name)._2
      val all    = Lakes.indices(z.paperLake, seed)
      val sample = Harness.sampleIds(s, z.directSample)
      val k      = s.goldAttrs.size
      def code(label: String, call: CodeCall, open: Boolean) =
        Cell(s"${s.name}/$label", s, all, open, oneValuePerSlot = true, Some(call), None,
          () => EvaporateCode.run(spark, s, docs, Profile.davinci, SystemSeed, call.k, call.cfg,
            call.givenSchema),
          () => gold)
      def direct(label: String, closed: Option[Seq[String]]) =
        Cell(s"${s.name}/$label", s, all.take(z.directSample), open = closed.isEmpty,
          oneValuePerSlot = false, None, closed,
          () => closed match {
            case None => EvaporateDirect.run(spark, s, Harness.restrict(docs, sample),
              Profile.davinci, SystemSeed, k)
            case Some(attrs) => EvaporateDirect.runClosed(spark, s, Harness.restrict(docs, sample),
              Profile.davinci, SystemSeed, attrs)
          },
          () => Harness.restrict(gold, sample))
      Seq(code("code", CodeCall(k, CodeConfig(singleFunction = true), None), open = true)) ++
        modes.map { case (m, mode) => code(s"code+$m", CodeCall(k, CodeConfig(mode = mode), None), open = true) } ++
        Seq(code("code+closed", CodeCall(k, CodeConfig(), Some(s.goldAttrs)), open = false),
          direct("direct", None), direct("direct_closed", Some(s.goldAttrs)))
    }
  }
}
