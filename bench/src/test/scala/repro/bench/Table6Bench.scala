package repro.bench

import repro.eval.Tables

/** Table 6 (Appendix C.1) — ClosedIE with a SQuAD2-style span extractor. */
class Table6Bench extends BenchSupport {

  private lazy val rows  = Tables.table6(spark)
  private lazy val plus  = BenchSupport.table1

  test("render and record Table 6") {
    record("table6", Tables.renderTable6(rows))
    assert(rows.size == 5)
  }

  test("QA baseline sits in the paper's mid band (paper: 43.5-56.5)") {
    rows.foreach(r => assert(r.closedF1 > 25 && r.closedF1 < 80, s"${r.group}: ${r.closedF1}"))
  }

  test("Evaporate-Code+ ClosedIE beats the QA baseline on every source (paper's point)") {
    rows.foreach { r =>
      val ev = plus.find(_.group == r.group).get.closedF1
      assert(ev > r.closedF1, s"${r.group}: QA ${r.closedF1} vs Code+ $ev")
    }
  }
}
