package repro.docs

import repro.util.Rng

/** Deterministic value generators shared by the 16 setting definitions. */
object Values {

  val firstNames: Vector[String] = Vector(
    "James", "Maria", "Kevin", "Alice", "Robert", "Linda", "Jayson", "Sofia",
    "Magic", "Tim", "Lamar", "Tony", "Greg", "Kermit", "Rik", "Sarah",
    "Daniel", "Elena", "Marcus", "Priya", "Victor", "Nadia", "Oscar", "Wei")

  val lastNames: Vector[String] = Vector(
    "Smith", "Johnson", "Tatum", "Duncan", "Washington", "Delk", "Foster",
    "Stevens", "Durant", "Garcia", "Chen", "Patel", "Novak", "Kim", "Okafor",
    "Martinez", "Brown", "Silva", "Ivanov", "Dubois", "Hansen", "Rossi")

  val companySuffix: Vector[String] = Vector(
    "Inc.", "Corporation", "Laboratories", "Bioscience", "Healthcare",
    "Diagnostics", "Systems", "Medical", "Technologies")

  val companyStem: Vector[String] = Vector(
    "Qualigen", "Immunalysis", "Tosoh", "Siemens", "Diazyme", "Leica",
    "Aurora", "Helix", "Vertex", "Axiom", "Nimbus", "Cobalt", "Meridian",
    "Pinnacle", "Cascade", "Summit", "Horizon", "Quantum")

  val cities: Vector[String] = Vector(
    "Washington", "Houston", "Boston", "Chicago", "Seattle", "Denver",
    "Atlanta", "Portland", "Austin", "Phoenix", "Columbus", "Madison",
    "Ann Arbor", "Berkeley", "Princeton", "Durham")

  val states: Vector[String] = Vector(
    "CA", "TX", "MA", "IL", "WA", "CO", "GA", "OR", "NY", "AZ", "OH", "WI",
    "MI", "NJ", "NC", "PA")

  val colleges: Vector[String] = Vector(
    "Texas", "American", "Marist", "Penn State", "Kentucky", "UTEP",
    "Michigan State", "Wake Forest", "Duke", "Kansas", "Gonzaga", "UCLA",
    "Arizona", "Villanova", "Syracuse", "Memphis")

  val positions: Vector[String] = Vector(
    "Point guard", "Shooting guard", "Small forward", "Power forward", "Center")

  val genres: Vector[String] = Vector(
    "Drama", "Comedy", "Action", "Thriller", "Romance", "Horror", "Sci-Fi",
    "Documentary", "Animation", "Crime", "Western", "Mystery")

  val months: Vector[String] = Vector(
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December")

  val movieWords: Vector[String] = Vector(
    "Midnight", "Golden", "Silent", "Crimson", "Broken", "Hidden", "Last",
    "Electric", "Winter", "Scarlet", "Infinite", "Hollow", "Rising", "Iron")

  val movieNouns: Vector[String] = Vector(
    "Harbor", "Empire", "Promise", "Shadow", "Garden", "Station", "River",
    "Covenant", "Horizon", "Letter", "Voyage", "Kingdom", "Signal", "Mirror")

  val universityStems: Vector[String] = Vector(
    "Northfield", "Lakewood", "Brookhaven", "Ridgemont", "Clearwater",
    "Stonebridge", "Fairview", "Oakdale", "Silverton", "Maplewood",
    "Eastvale", "Westbrook", "Harborview", "Pinecrest")

  def personName(rng: Rng): String =
    rng.derive("fn").pick(firstNames) + " " + rng.derive("ln").pick(lastNames)

  def company(rng: Rng): String =
    rng.derive("stem").pick(companyStem) + " " + rng.derive("suf").pick(companySuffix)

  /** "June 29, 1988" */
  def dateLong(rng: Rng, yearLo: Int = 1960, yearHi: Int = 2005): String = {
    val m = rng.derive("m").pick(months)
    val d = 1 + rng.derive("d").int(28)
    val y = yearLo + rng.derive("y").int(yearHi - yearLo + 1)
    s"$m $d, $y"
  }

  /** Email-header date: "Mon, 14 May 2001 16:39:00 -0700 (PDT)" */
  def dateRfc(rng: Rng): String = {
    val dow = rng.derive("dw").pick(Vector("Mon", "Tue", "Wed", "Thu", "Fri"))
    val d   = 1 + rng.derive("d").int(28)
    val mon = rng.derive("m").pick(Vector("Jan", "Feb", "Mar", "Apr", "May", "Jun",
      "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"))
    val y = 1999 + rng.derive("y").int(4)
    val h = rng.derive("h").int(24); val mi = rng.derive("mi").int(60)
    f"$dow, $d $mon $y $h%02d:$mi%02d:00 -0700 (PDT)"
  }

  def email(rng: Rng): String = {
    val f = rng.derive("fn").pick(firstNames).toLowerCase
    val l = rng.derive("ln").pick(lastNames).toLowerCase
    s"$f.$l@enron.com"
  }

  /** 510(k) number "K123456"; minority lowercase "k" (the paper's example
    * of a value-shape split that narrow regex functions miss).
    */
  def k510(rng: Rng): String = {
    val digits = (0 until 6).map(i => rng.derive("dig", i).int(10)).mkString
    val prefix = if (rng.derive("case").bool(0.18)) "k" else "K"
    prefix + digits
  }

  /** Three-letter FDA product code. */
  def productCode(rng: Rng): String =
    (0 until 3).map(i => ('A' + rng.derive("c", i).int(26)).toChar).mkString

  def regulationNumber(rng: Rng): String =
    s"21 CFR 86${rng.derive("a").int(10)}.${1000 + rng.derive("b").int(9000)}"

  def movieTitle(rng: Rng): String =
    "The " + rng.derive("adj").pick(movieWords) + " " + rng.derive("n").pick(movieNouns)

  def runtimeMinutes(rng: Rng): String = s"${80 + rng.derive("rt").int(100)} minutes"

  def year(rng: Rng, lo: Int = 1965, hi: Int = 2012): String =
    (lo + rng.derive("yr").int(hi - lo + 1)).toString

  def mpaa(rng: Rng): String = rng.derive("r").pick(Vector("G", "PG", "PG-13", "R", "NC-17"))

  def universityName(rng: Rng): String =
    rng.derive("stem").pick(universityStems) + " " +
      rng.derive("kind").pick(Vector("University", "College", "State University", "Institute of Technology"))

  def phone(rng: Rng): String =
    f"(${200 + rng.derive("a").int(700)}%03d) ${200 + rng.derive("b").int(700)}%03d-${rng.derive("c").int(10000)}%04d"

  def money(rng: Rng, lo: Int, hi: Int): String = {
    val v = lo + rng.derive("v").int(hi - lo + 1)
    "$" + f"$v%,d"
  }

  def intBetween(rng: Rng, lo: Int, hi: Int): String =
    (lo + rng.derive("v").int(hi - lo + 1)).toString

  /** Compound NBA "born" value: "June 29, 1988 (age 34) Washington, D.C." */
  def bornCompound(rng: Rng): String = {
    val date = dateLong(rng.derive("d"), 1945, 1999)
    val age  = 22 + rng.derive("age").int(50)
    val city = rng.derive("city").pick(cities)
    s"$date (age $age) $city, ${rng.derive("st").pick(states)}"
  }

  /** Compound NBA draft value: "1st round, 2nd overall, 2007". */
  def draftCompound(rng: Rng): String = {
    val round = rng.derive("r").pick(Vector("1st", "2nd"))
    val pick  = 1 + rng.derive("p").int(30)
    val suffix = pick % 10 match {
      case 1 if pick != 11 => "st"; case 2 if pick != 12 => "nd"
      case 3 if pick != 13 => "rd"; case _ => "th"
    }
    s"$round round, $pick$suffix overall, ${year(rng.derive("y"), 1965, 2012)}"
  }

  /** Compound height "6 ft 10 in (2.08 m)". */
  def heightCompound(rng: Rng): String = {
    val ft = 6; val in = rng.derive("in").int(12)
    val m  = (ft * 12 + in) * 0.0254
    f"$ft ft $in in (${m}%.2f m)"
  }

  def weightCompound(rng: Rng): String = {
    val lb = 165 + rng.derive("lb").int(120)
    val kg = lb * 0.4536
    f"$lb lb (${kg}%.0f kg)"
  }

  /** Multi-valued position: "Small forward / Power forward". */
  def positionMulti(rng: Rng): String = {
    val p1 = rng.derive("p1").pick(positions)
    if (rng.derive("two").bool(0.4)) {
      val p2 = rng.derive("p2").pick(positions.filterNot(_ == p1))
      s"$p1 / $p2"
    } else p1
  }

  /** Multi-line email recipient list (continuation-indented). */
  def recipientList(rng: Rng): String = {
    val n = 1 + rng.derive("n").int(4)
    (0 until n).map(i => email(rng.derive("r", i))).mkString(",\n\t")
  }

  def castList(rng: Rng): String =
    (0 until 3).map(i => personName(rng.derive("cast", i))).mkString(", ")

  def sentenceValue(rng: Rng, lead: String): String = {
    val use = rng.derive("use").pick(Vector(
      "quantitative measurement", "qualitative detection", "in vitro diagnostic use",
      "continuous monitoring", "screening and confirmation"))
    val of = rng.derive("of").pick(Vector(
      "C-reactive protein", "opiates", "sex hormone binding globulin", "tacrolimus",
      "barbiturates", "glucose", "creatinine", "hemoglobin"))
    s"$lead the $use of $of in human serum"
  }
}
