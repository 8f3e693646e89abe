package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Tables

/** Shared bootstrap for the per-table spark-submit entrypoints. */
object JobSession {
  def spark(name: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "32")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }
}

/** Table 1: Evaporate-Code+ ClosedIE/OpenIE quality across the 5 groups. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table1")
    println(Tables.renderTable1(Tables.table1(spark)))
    spark.stop()
  }
}

/** Table 2: SWDE comparison against the DOM-baseline family. */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table2")
    println(Tables.renderTable2(Tables.table2(spark)))
    spark.stop()
  }
}

/** Table 3: Direct vs Code+ quality and per-10k-document cost. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table3")
    println(Tables.renderTable3(Tables.table3(spark)))
    println(Tables.costCurves())
    spark.stop()
  }
}

/** Table 4: MV / WS / WS+Filter / WS+Abstain+Filter ablation. */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table4")
    println(Tables.renderTable4(Tables.table4(spark)))
    spark.stop()
  }
}

/** Table 5: alternate LLM providers + schema-identification F1@k. */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table5")
    println(Tables.renderTable5(Tables.table5(spark), Tables.davinciSchemaF1(spark)))
    spark.stop()
  }
}

/** Table 6: QA span-extractor ClosedIE baseline. */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table6")
    println(Tables.renderTable6(Tables.table6(spark)))
    spark.stop()
  }
}

/** Table 7: LLM F ClosedIE quality and cost. */
object Table7Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table7")
    println(Tables.renderTable7(Tables.table7(spark)))
    spark.stop()
  }
}

/** Figure 3 crossover points (analytic, from the metered cost model). */
object CostCurvesJob {
  def main(args: Array[String]): Unit = {
    println(Tables.costCurves())
  }
}

/** §4.4.1 prompt-diversity micro-experiment (P_A / P_B / both). */
object PromptDiversityJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("prompt-diversity")
    println(Tables.renderDiversity(Tables.promptDiversity(spark)))
    spark.stop()
  }
}
