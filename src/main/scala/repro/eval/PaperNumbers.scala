package repro.eval

/** The numbers reported in the paper's tables, kept next to the measured
  * values so every bench prints a paper-vs-measured diff (EXPERIMENTS.md).
  * Group order everywhere: FDA, Enron Emails, Wiki NBA, SWDE Movie,
  * SWDE University.
  */
object PaperNumbers {

  val groups: Seq[String] =
    Seq("FDA", "Enron Emails", "Wiki NBA", "SWDE Movie", "SWDE University")

  /** Table 1: Code+ quality — group -> (ClosedIE F1, Open R, Open P, Open F1). */
  val table1: Map[String, Seq[Double]] = Map(
    "FDA"             -> Seq(80.1, 58.9, 67.2, 62.8),
    "Enron Emails"    -> Seq(93.3, 80.3, 94.6, 86.9),
    "Wiki NBA"        -> Seq(84.7, 55.7, 88.2, 68.2),
    "SWDE Movie"      -> Seq(79.5, 48.5, 71.0, 56.8),
    "SWDE University" -> Seq(73.7, 50.9, 71.4, 59.0),
  )
  /** Table 1's Average row, as printed in the paper. */
  val table1Average: Seq[Double] = Seq(82.3, 58.9, 78.5, 66.7)

  /** Table 2: system -> (movie closed, movie open, univ closed, univ open);
    * NaN where the paper reports no number.
    */
  val table2: Map[String, Seq[Double]] = Map(
    "ZeroShot Ceres"     -> Seq(Double.NaN, 50.0, Double.NaN, 50.0),
    "RoBERTa-Base"       -> Seq(49.3, 35.6, 36.6, 38.0),
    "RoBERTa-Structural" -> Seq(47.7, 39.9, 46.5, 42.3),
    "DOM-LM"             -> Seq(71.9, 54.1, 68.0, 55.2),
    "Evaporate-Direct"   -> Seq(84.4, 37.4, 72.6, 54.4),
    "Evaporate-Code"     -> Seq(55.0, 33.0, 40.5, 22.2),
    "Evaporate-Code+"    -> Seq(79.5, 56.8, 73.7, 59.0),
  )

  /** Table 3: group -> (direct F1, direct Mtok/10k docs, direct $, code+ F1,
    * code+ Mtok, code+ $, delta F1, token reduction x).
    */
  val table3: Map[String, Seq[Double]] = Map(
    "FDA"             -> Seq(48.6, 145.6, 2900.0, 64.9, 1.9, 38.0, 16.3, 77.0),
    "Enron Emails"    -> Seq(90.9, 21.2, 425.0, 87.1, 0.6, 12.0, -3.8, 35.0),
    "Wiki NBA"        -> Seq(45.9, 650.1, 13000.0, 68.6, 3.0, 60.0, 22.7, 217.0),
    "SWDE Movie"      -> Seq(37.4, 282.9, 5660.0, 57.4, 2.3, 46.0, 38.0, 123.0),
    "SWDE University" -> Seq(54.4, 190.1, 3800.0, 59.5, 1.9, 38.0, 5.1, 100.0),
  )
  /** Table 3's Average row, as printed in the paper (not the mean of the
    * rows above: that gives a 110.4x reduction, the paper prints 110x).
    */
  val table3Average: Seq[Double] = Seq(55.4, 258.0, 5157.0, 67.5, 1.9, 39.0, 12.1, 110.0)

  /** Table 4: group -> (MV, WS, WS+Filter, WS+Abstain+Filter). */
  val table4: Map[String, Seq[Double]] = Map(
    "FDA"             -> Seq(52.9, 51.1, 55.0, 62.8),
    "Enron Emails"    -> Seq(81.4, 82.7, 86.9, 86.9),
    "Wiki NBA"        -> Seq(59.5, 64.9, 68.4, 68.2),
    "SWDE Movie"      -> Seq(44.3, 46.3, 56.6, 56.8),
    "SWDE University" -> Seq(42.7, 43.5, 57.3, 59.0),
  )
  /** Table 4's Average row, as printed in the paper. */
  val table4Average: Seq[Double] = Seq(56.2, 57.7, 64.8, 66.7)

  /** Table 5: model -> (direct: fda, nba, movie, univ, enron;
    * code+: fda, nba, movie, univ, enron; schema F1@k).
    */
  val table5: Map[String, (Seq[Double], Seq[Double], Double)] = Map(
    "gpt-4"            -> (Seq(59.2, 40.5, 35.1, 56.1, 92.7), Seq(57.5, 61.4, 54.9, 57.2, 85.5), 67.3),
    "claude-v1"        -> (Seq(45.1, 20.6, 27.5, 44.3, 88.1), Seq(44.4, 33.5, 38.7, 30.4, 84.7), 69.0),
    "jurassic-jumbo-2" -> (Seq(25.9, 0.0, 13.3, 29.2, 90.3), Seq(1.2, 0.0, 20.6, 18.6, 85.7), 62.3),
  )
  /** §4.4.2: schema F1@k for text-davinci-003. */
  val davinciSchemaF1AtK: Double = 71.9

  /** Table 6: group -> (n attributes, ClosedIE F1 of the QA baseline). */
  val table6: Map[String, (Int, Double)] = Map(
    "Enron Emails"    -> (15, 53.7),
    "FDA"             -> (17, 56.5),
    "Wiki NBA"        -> (19, 50.2),
    "SWDE Movie"      -> (30, 43.5),
    "SWDE University" -> (25, 45.3),
  )

  /** Table 7: group -> (n attributes, (F1, Mtok/10k docs, $)). */
  val table7: Map[String, (Int, Seq[Double])] = Map(
    "Enron Emails"    -> (15, Seq(85.3, 140.0, 2790.0)),
    "FDA"             -> (16, Seq(78.0, 241.0, 4816.0)),
    "Wiki NBA"        -> (19, Seq(84.6, 328.0, 6559.0)),
    "SWDE Movie"      -> (25, Seq(84.4, 359.0, 7174.0)),
    "SWDE University" -> (33, Seq(72.6, 379.0, 7586.0)),
  )
  /** Table 7's Average row (F1, Mtok, $), as printed in the paper (its mean
    * F1 over the rows above would be 81.0, the paper prints 79.9).
    */
  val table7Average: Seq[Double] = Seq(79.9, 289.0, 5785.0)

  /** Figure 3 crossover claims (§3.2 / §4.4.1). */
  val crossoverDocs: Double  = 40.0
  val crossoverAttrs: Double = 2500.0
}
