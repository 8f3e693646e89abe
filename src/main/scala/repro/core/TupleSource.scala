package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read.{LocalScan, Scan, ScanBuilder, SupportsPushDownFilters}
import org.apache.spark.sql.sources.{EqualTo, Filter, In, IsNotNull}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.unsafe.types.UTF8String

/** The DSv2 source behind every view's table: driver-side `(doc_id, attr,
  * value)` rows read through a `LocalScan`. The logical plan holds only the
  * table object, so Catalyst's rules never walk the rows, and the executed
  * plan is a `LocalTableScanExec`: collecting it starts no Spark job.
  *
  * `doc_id IN (…)` and `doc_id = …` are applied in the scan, so a view
  * restricted to some documents is read without a job too; every other
  * filter (but the `doc_id IS NOT NULL` that Spark infers beside an
  * equality) stays in Spark.
  */
final class TupleSource extends TableProvider {
  override def inferSchema(options: CaseInsensitiveStringMap): StructType = TupleSource.Schema

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: java.util.Map[String, String]): Table = {
    val id   = properties.get("id")
    val rows = TupleSource.handoff.get(id)
    require(rows != null, s"no tuples handed off under id '$id'")
    new TupleSource.TupleTable(rows)
  }
}

object TupleSource {

  /** The tuple schema of every view's `table`. */
  private val Schema: StructType = StructType(Seq(
    StructField("doc_id", StringType), StructField("attr", StringType),
    StructField("value", StringType)))

  /** Rows on their way from `load` into `getTable`, by a JVM-unique id. */
  private val handoff = new ConcurrentHashMap[String, Array[InternalRow]]
  private val nextId  = new AtomicLong

  /** Entries not yet taken back by `load`: 0 whenever no `load` is running. */
  private[core] def pending: Int = handoff.size

  /** `tuples` as a `(doc_id, attr, value)` DataFrame, each converted once to
    * a row of `UTF8String`s.
    */
  private[core] def load(spark: SparkSession, tuples: Seq[(String, String, String)]): DataFrame =
    load(spark, tuples.iterator.map { case (d, a, v) =>
      InternalRow(UTF8String.fromString(d), UTF8String.fromString(a), UTF8String.fromString(v))
    }.toArray)

  /** `rows`, each `(doc_id, attr, value)` as `UTF8String`s, as a DataFrame.
    * The plan captures the table during `load()`, so the handoff entry is
    * removed once `load()` returns or throws.
    */
  private[core] def load(spark: SparkSession, rows: Array[InternalRow]): DataFrame = {
    val id = nextId.incrementAndGet().toString
    handoff.put(id, rows)
    try spark.read.format(classOf[TupleSource].getName).option("id", id).load()
    finally handoff.remove(id)
  }

  private final class TupleTable(rows: Array[InternalRow]) extends Table with SupportsRead {
    override def name(): String = "tuples"
    override def schema(): StructType = Schema
    override def capabilities(): java.util.Set[TableCapability] = java.util.EnumSet.of(TableCapability.BATCH_READ)
    override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder = new TupleScanBuilder(rows)
  }

  /** The non-null doc_ids a filter on `doc_id` alone admits: `doc_id = s`,
    * `doc_id IN (s, …)`, and the `doc_id IS NOT NULL` Spark infers beside an
    * equality. None for every other filter. Each of them rejects a null doc_id.
    */
  private def admits(f: Filter): Option[UTF8String => Boolean] = f match {
    case IsNotNull("doc_id") => Some(_ => true)
    case EqualTo("doc_id", v: String) =>
      val id = UTF8String.fromString(v)
      Some(id == _)
    case In("doc_id", vs) if vs.forall(v => v == null || v.isInstanceOf[String]) =>
      Some(vs.collect { case v: String => UTF8String.fromString(v) }.toSet)
    case _ => None
  }

  private final class TupleScanBuilder(rows: Array[InternalRow]) extends ScanBuilder with SupportsPushDownFilters {
    private var pushed = Array.empty[Filter]

    override def pushFilters(filters: Array[Filter]): Array[Filter] = {
      val (mine, rest) = filters.partition(admits(_).isDefined)
      pushed = mine
      rest
    }

    override def pushedFilters(): Array[Filter] = pushed

    override def build(): Scan = {
      val tests = pushed.flatMap(admits)
      new TupleScan(
        if (tests.isEmpty) rows
        else rows.filter { r =>
          val id = r.getUTF8String(0)
          id != null && tests.forall(_(id))
        })
    }
  }

  private final class TupleScan(localRows: Array[InternalRow]) extends LocalScan {
    override def readSchema(): StructType = Schema
    override def rows(): Array[InternalRow] = localRows
  }
}
