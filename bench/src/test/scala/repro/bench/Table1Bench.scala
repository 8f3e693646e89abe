package repro.bench

import repro.eval.Tables

/** Table 1 — Evaporate-Code+ quality: ClosedIE Text F1 and OpenIE Pair
  * R/P/F1 over the five source groups (full 100-doc lakes, davinci).
  */
class Table1Bench extends BenchSupport {

  private lazy val rows = BenchSupport.table1

  test("render and record Table 1") {
    record("table1", Tables.renderTable1(rows))
    assert(rows.size == 5)
  }

  test("ClosedIE exceeds OpenIE everywhere (names given vs names synthesized)") {
    rows.foreach(r => assert(r.closedF1 > r.openF1, s"${r.group}: ${r.closedF1} vs ${r.openF1}"))
  }

  test("average quality is in the paper's regime (paper: 82.3 closed / 66.7 open)") {
    val closed = rows.map(_.closedF1).sum / rows.size
    val open   = rows.map(_.openF1).sum / rows.size
    assert(closed > 65 && closed < 98, s"closed avg $closed")
    assert(open > 50 && open < 92, s"open avg $open")
  }

  test("precision runs ahead of recall (paper: 78.5 P vs 58.9 R)") {
    val p = rows.map(_.openP).sum / rows.size
    val r = rows.map(_.openR).sum / rows.size
    assert(p >= r, s"P=$p R=$r")
  }

  test("Enron is the easiest source, as in the paper") {
    val enron = rows.find(_.group == "Enron Emails").get
    assert(rows.forall(r => r.group == "Enron Emails" || r.openF1 <= enron.openF1 + 1.0))
  }
}
