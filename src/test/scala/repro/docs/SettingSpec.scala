package repro.docs

import org.scalatest.funsuite.AnyFunSuite

/** `Setting.attrByName`, an index over the normalized names and aliases,
  * equals the linear scan it replaced.
  */
class SettingSpec extends AnyFunSuite {

  /** The first attribute whose name matches after `Naming.normalize`, else
    * the first with a matching alias.
    */
  private def linearScan(s: Setting, n: String): Option[AttrSpec] = {
    val norm = Naming.normalize(n)
    s.attrs.find(a => Naming.normalize(a.name) == norm)
      .orElse(s.attrs.find(_.aliases.exists(al => Naming.normalize(al) == norm)))
  }

  /** `n`, upper-cased, and punctuated in three ways. */
  private def variants(n: String): Seq[String] =
    Seq(n, n.toUpperCase, s"  ${n.replace(' ', '_')}:", n.split(" ").mkString("-"), s"(${n.capitalize})")

  for (s <- Corpora.all) {
    test(s"${s.name}: attrByName equals the linear scan on every name and alias") {
      val names = s.attrs.flatMap(a => a.name +: a.aliases)
      (names.flatMap(variants) :+ "no such attribute").foreach { n =>
        assert(s.attrByName(n) == linearScan(s, n), n)
      }
      assert(s.attrByName("no such attribute").isEmpty)
      s.attrs.foreach(a => assert(s.attrByName(a.name).exists(_ eq a), a.name))
    }
  }

  test("a canonical name wins over an alias that normalizes to the same string") {
    def attr(name: String, aliases: String*) =
      AttrSpec(name, aliases, 1.0, _ => "v", Seq(Style.KeyColonStyle(name) -> 1.0))
    val price = attr("unit price", "Cost", "list price")
    val cost  = attr("cost", "Unit-Price")
    val s     = Setting("toy", "toy", "TXT", Seq(price, cost), 10, 1)
    Seq("cost", "COST", "cost:").foreach(n => assert(s.attrByName(n).exists(_ eq cost), n))
    Seq("unit price", "Unit-Price").foreach(n => assert(s.attrByName(n).exists(_ eq price), n))
    assert(s.attrByName("List Price").exists(_ eq price))
    Seq("cost", "unit price", "list price", "none").foreach(n => assert(s.attrByName(n) == linearScan(s, n), n))
  }
}
