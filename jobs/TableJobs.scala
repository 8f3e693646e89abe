package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.{Harness, Tables}

/** A spark-submit main that prints one rendered paper table: it builds the
  * program's session, prints `render`'s text and stops the session.
  */
abstract class TableJob(name: String, render: SparkSession => String) {
  def main(args: Array[String]): Unit = {
    val spark = Harness.session(name)
    spark.sparkContext.setLogLevel("ERROR")
    try println(render(spark))
    finally spark.stop()
  }
}

/** Table 1: Evaporate-Code+ ClosedIE/OpenIE quality across the 5 groups. */
object Table1Job extends TableJob("table1", s => Tables.renderTable1(Tables.table1(s)))

/** Table 2: SWDE comparison against the DOM-baseline family. */
object Table2Job extends TableJob("table2", s => Tables.renderTable2(Tables.table2(s)))

/** Table 3: Direct vs Code+ quality and per-10k-document cost, then the Figure 3 crossovers. */
object Table3Job extends TableJob("table3",
  s => Tables.renderTable3(Tables.table3(s)) + "\n" + Tables.costCurves())

/** Table 4: MV / WS / WS+Filter / WS+Abstain+Filter ablation. */
object Table4Job extends TableJob("table4", s => Tables.renderTable4(Tables.table4(s)))

/** Table 5: alternate LLM providers + schema-identification F1@k. */
object Table5Job extends TableJob("table5",
  s => Tables.renderTable5(Tables.table5(s), Tables.davinciSchemaF1(s)))

/** Table 6: QA span-extractor ClosedIE baseline. */
object Table6Job extends TableJob("table6", s => Tables.renderTable6(Tables.table6(s)))

/** Table 7: LLM F ClosedIE quality and cost. */
object Table7Job extends TableJob("table7", s => Tables.renderTable7(Tables.table7(s)))

/** §4.4.1 prompt-diversity micro-experiment (P_A / P_B / both). */
object PromptDiversityJob extends TableJob("prompt-diversity",
  s => Tables.renderDiversity(Tables.promptDiversity(s)))

/** Figure 3 crossover points (analytic, from `CostModel`'s paper-geometry constants). */
object CostCurvesJob {
  def main(args: Array[String]): Unit = println(Tables.costCurves())
}
