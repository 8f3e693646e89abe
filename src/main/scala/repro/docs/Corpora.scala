package repro.docs

import repro.docs.Style._
import repro.docs.{Values => V}

/** The 16 evaluation settings (five reporting groups), mirroring the paper:
  * FDA 510(k) reviews (TXT), Enron emails (TXT), Wikipedia NBA player pages
  * (HTML), 8 SWDE Movie sites (HTML), 5 SWDE University sites (HTML).
  *
  * Each synthetic lake reproduces the *shape* that drives the paper's
  * per-setting results: FDA documents are long with mixed-case key formats
  * scattered through prose; Enron headers are short and rigid; NBA infobox
  * values are compound and wrapped in nested markup; SWDE sites are 13
  * distinct templates whose labels drift across sites and whose
  * title/meta/href attributes live outside the DOM body (the SWDE-Plus
  * extension the paper releases).
  */
object Corpora {

  // ---------------------------------------------------------------- FDA ---

  val fda: Setting = {
    def kc(label: String, cx: Double = 0.25) = KeyColonStyle(label, complexity = cx)
    val attrs = Seq(
      AttrSpec("510(k) number", Seq("submission number", "510k"), 1.0, V.k510,
        Seq(kc("510(k) Number") -> 0.7,
            kc("510(K) NUMBER", 0.35) -> 0.15,
            InlineStyle("the premarket submission number ", " was assigned to this device") -> 0.15),
        section = 0),
      AttrSpec("applicant", Seq("applicant name", "submitter"), 1.0, V.company,
        Seq(kc("Applicant") -> 0.7, kc("APPLICANT", 0.35) -> 0.2,
            InlineStyle("submitted on behalf of ", ", the manufacturer of record") -> 0.1),
        section = 0),
      AttrSpec("device name", Seq("trade name", "device trade name"), 1.0,
        r => V.company(r.derive("c")).split(" ").head + " " +
             r.derive("kind").pick(Vector("Analyzer", "Assay", "Monitor", "Imaging System", "Reagent Kit")),
        Seq(kc("Device Name") -> 0.55, kc("Trade Name") -> 0.45), section = 0),
      AttrSpec("predicate device name", Seq("predicate device", "predicate"), 0.95,
        r => V.company(r.derive("c")).split(" ").head + " Predicate " +
             r.derive("kind").pick(Vector("Analyzer", "Assay", "Monitor")),
        Seq(kc("Predicate Device Name") -> 0.8,
            InlineStyle("substantially equivalent to the legally marketed ", ", which serves as the predicate") -> 0.2),
        section = 1),
      AttrSpec("product code", Seq("device product code"), 1.0, V.productCode,
        Seq(kc("Product Code") -> 0.6, kc("PRODUCT CODE", 0.35) -> 0.25,
            InlineStyle("classified under product code ", " by the review panel") -> 0.15),
        section = 1),
      AttrSpec("classification", Seq("device classification", "regulatory information", "device class"), 1.0,
        r => "Class " + r.derive("cls").pick(Vector("I", "II", "III")),
        Seq(kc("Classification") -> 0.65, kc("Device Classification") -> 0.35), section = 1),
      AttrSpec("regulation number", Seq("regulation"), 0.95, V.regulationNumber,
        Seq(kc("Regulation Number") -> 0.9, kc("REGULATION NUMBER", 0.35) -> 0.1), section = 2),
      AttrSpec("panel", Seq("review panel", "advisory panel"), 0.9,
        r => r.derive("p").pick(Vector("Clinical Chemistry", "Hematology", "Immunology",
          "Microbiology", "Radiology", "Toxicology")),
        Seq(kc("Panel") -> 0.85, kc("Review Panel") -> 0.15), section = 2),
      AttrSpec("decision", Seq("decision type", "outcome"), 1.0,
        r => if (r.derive("d").bool(0.9)) "substantially equivalent (SESE)" else "substantially equivalent with limitations",
        Seq(kc("Decision") -> 0.9, kc("DECISION", 0.35) -> 0.1), section = 2),
      AttrSpec("decision date", Seq("date of decision", "cleared date"), 1.0,
        r => V.dateLong(r, 1996, 2022),
        Seq(kc("Decision Date") -> 0.8,
            InlineStyle("a final determination was issued on ", " by the Office of Device Evaluation") -> 0.2),
        section = 3),
      AttrSpec("measurand", Seq("analyte"), 0.85,
        r => r.derive("m").pick(Vector("C-reactive protein (CRP)", "Opiates", "Sex Hormone Binding Globulin",
          "Tacrolimus", "Barbiturates", "1,5-Anhydroglucitol", "Creatinine", "Glucose")),
        Seq(kc("Measurand") -> 0.85, kc("MEASURAND", 0.35) -> 0.15), section = 3),
      AttrSpec("type of test", Seq("test type"), 0.9,
        r => r.derive("t").pick(Vector("Quantitative", "Qualitative", "Quantitative immunoassay",
          "Homogeneous enzyme immunoassay", "Colorimetric")),
        Seq(kc("Type of Test") -> 0.7, kc("TYPE OF TEST", 0.35) -> 0.3), section = 3),
      AttrSpec("purpose for submission", Seq("submission purpose"), 0.9,
        r => r.derive("p").pick(Vector("New assay", "New Device", "Modified device",
          "Additional claims", "New WSI System")),
        Seq(kc("Purpose for Submission") -> 0.8, kc("PURPOSE FOR SUBMISSION", 0.35) -> 0.2),
        section = 4),
      AttrSpec("indications for use", Seq("indication", "indications"), 0.9,
        r => V.sentenceValue(r, "intended for"),
        Seq(kc("Indications for Use") -> 0.6, kc("INDICATIONS FOR USE", 0.35) -> 0.4),
        section = 4),
      AttrSpec("intended use", Seq("intended use statement"), 0.8,
        r => V.sentenceValue(r, "to be used for"),
        Seq(kc("Intended Use") -> 0.75, kc("INTENDED USE", 0.35) -> 0.25), section = 5),
      AttrSpec("proprietary name", Seq("proprietary and established names"), 0.7,
        r => V.company(r.derive("c")).split(" ").head + " " +
             r.derive("n").pick(Vector("Pro", "Elite", "Max", "Prime")) + " System",
        Seq(kc("Proprietary Name") -> 0.8, kc("PROPRIETARY NAME", 0.35) -> 0.2), section = 5),
    )
    Setting("fda", "FDA", "TXT", attrs,
      fillerWordsPerSection = 180, nSections = 6)
  }

  // -------------------------------------------------------------- Enron ---

  val enron: Setting = {
    // Rigid RFC-822-style headers: a single exact variant per attribute is
    // what makes both Direct and synthesized functions near-perfect here
    // (the one setting where the paper's Direct edges out Code+).
    def hdr(label: String) = KeyColonStyle(label, complexity = 0.0)
    def hdrML(label: String) = KeyColonStyle(label, complexity = 0.0, multilineValues = true)
    val attrs = Seq(
      AttrSpec("message-id", Nil, 1.0,
        r => s"<${r.derive("a").longBetween(10000000L, 99999999L)}.${r.derive("b").longBetween(1000000L, 9999999L)}.JavaMail.evans@thyme>",
        Seq(hdr("Message-ID") -> 1.0), section = 0),
      AttrSpec("date", Nil, 1.0, V.dateRfc, Seq(hdr("Date") -> 1.0), section = 0),
      AttrSpec("from", Nil, 1.0, V.email, Seq(hdr("From") -> 1.0), section = 0),
      AttrSpec("to", Nil, 0.95, V.recipientList, Seq(hdrML("To") -> 1.0), section = 0),
      AttrSpec("subject", Nil, 0.95,
        r => r.derive("s").pick(Vector("RE: gas scheduling update", "FW: trading desk summary",
          "meeting notes", "Q3 forecast review", "pipeline capacity", "contract amendment draft",
          "weekend coverage", "credit exposure report")),
        Seq(hdr("Subject") -> 1.0), section = 0),
      AttrSpec("cc", Nil, 0.5, V.recipientList, Seq(hdrML("Cc") -> 1.0), section = 0),
      AttrSpec("bcc", Nil, 0.3, V.recipientList, Seq(hdrML("Bcc") -> 1.0), section = 0),
      AttrSpec("mime-version", Nil, 1.0, _ => "1.0", Seq(hdr("Mime-Version") -> 1.0), section = 0),
      AttrSpec("content-type", Nil, 1.0,
        r => if (r.derive("t").bool(0.8)) "text/plain; charset=us-ascii" else "text/plain; charset=ANSI_X3.4-1968",
        Seq(hdr("Content-Type") -> 1.0), section = 0),
      AttrSpec("content-transfer-encoding", Nil, 1.0,
        r => if (r.derive("t").bool(0.9)) "7bit" else "quoted-printable",
        Seq(hdr("Content-Transfer-Encoding") -> 1.0), section = 0),
      AttrSpec("x-from", Nil, 1.0, V.personName, Seq(hdr("X-From") -> 1.0), section = 1),
      AttrSpec("x-to", Nil, 0.95,
        r => (0 until 1 + r.derive("n").int(3)).map(i => V.personName(r.derive("p", i))).mkString(", "),
        Seq(hdr("X-To") -> 1.0), section = 1),
      AttrSpec("x-folder", Nil, 1.0,
        r => s"\\${V.personName(r.derive("p")).replace(" ", "_")}\\Notes Folders\\${r.derive("f").pick(Vector("All documents", "Sent", "Discussion threads", "Notes inbox"))}",
        Seq(hdr("X-Folder") -> 1.0), section = 1),
      AttrSpec("x-origin", Nil, 1.0,
        r => r.derive("o").pick(V.lastNames).toUpperCase,
        Seq(hdr("X-Origin") -> 1.0), section = 1),
      AttrSpec("x-filename", Nil, 1.0,
        r => V.personName(r.derive("p")).toLowerCase.replace(" ", "") + ".nsf",
        Seq(hdr("X-FileName") -> 1.0), section = 1),
    )
    Setting("enron", "Enron Emails", "TXT", attrs,
      fillerWordsPerSection = 40, nSections = 2)
  }

  // ----------------------------------------------------------- Wiki NBA ---

  val nba: Setting = {
    def row(label: String, nested: Boolean = true) =
      TagRowStyle(label, valueTag = "td", cls = "infobox-data", nested = nested,
        complexity = if (nested) 0.8 else 0.45)
    val attrs = Seq(
      AttrSpec("name", Seq("player name", "full name"), 1.0, V.personName,
        Seq(TitleStyle(" - Wikipedia", "Wikipedia") -> 0.85,
            MetaStyle("name") -> 0.15), section = 0),
      AttrSpec("born", Seq("birth date", "date of birth"), 1.0, V.bornCompound,
        Seq(row("Born") -> 0.8, row("Born", nested = false) -> 0.2), section = 1),
      AttrSpec("nationality", Seq("country"), 0.9,
        r => r.derive("n").pick(Vector("American", "Canadian", "French", "Spanish", "Australian", "Serbian")),
        Seq(row("Nationality", nested = false) -> 1.0), section = 1),
      AttrSpec("listed height", Seq("height"), 1.0, V.heightCompound,
        Seq(row("Listed height") -> 0.75, row("Listed height", nested = false) -> 0.25), section = 1),
      AttrSpec("listed weight", Seq("weight"), 1.0, V.weightCompound,
        Seq(row("Listed weight") -> 0.75, row("Listed weight", nested = false) -> 0.25), section = 1),
      AttrSpec("position", Seq("playing position"), 1.0, V.positionMulti,
        Seq(row("Position", nested = false) -> 0.7, row("Position") -> 0.3), section = 1),
      AttrSpec("league", Nil, 1.0, _ => "NBA", Seq(row("League", nested = false) -> 1.0), section = 1),
      AttrSpec("college", Seq("college name"), 0.8,
        r => r.derive("c").pick(V.colleges),
        Seq(row("College", nested = false) -> 0.8, HrefStyle("/wiki/college/") -> 0.2), section = 2),
      AttrSpec("high school", Seq("school"), 0.75,
        r => r.derive("c").pick(V.cities) + " High School",
        Seq(row("High school") -> 0.7, row("High school", nested = false) -> 0.3), section = 2),
      AttrSpec("nba draft", Seq("draft"), 0.95, V.draftCompound,
        Seq(row("NBA draft") -> 0.85, row("NBA draft", nested = false) -> 0.15), section = 2),
      AttrSpec("playing career", Seq("career"), 0.9,
        r => { val s = 1965 + r.derive("s").int(45); s"$s–${s + 8 + r.derive("e").int(10)}" },
        Seq(row("Playing career", nested = false) -> 1.0), section = 2),
      AttrSpec("career start", Nil, 0.85, r => V.year(r, 1965, 2010),
        Seq(row("Career start", nested = false) -> 0.8, HrefStyle("/wiki/season/") -> 0.2), section = 3),
      AttrSpec("number", Seq("jersey number"), 0.9, r => V.intBetween(r, 0, 55),
        Seq(row("Number", nested = false) -> 1.0), section = 3),
      AttrSpec("teams", Seq("team"), 0.95,
        r => (0 until 1 + r.derive("n").int(3)).map(i =>
          r.derive("t", i).pick(V.cities) + " " +
          r.derive("m", i).pick(Vector("Hawks", "Bulls", "Sonics", "Rockets", "Kings", "Jazz"))).mkString(", "),
        Seq(row("Teams") -> 0.8, row("Teams", nested = false) -> 0.2), section = 3),
      AttrSpec("points", Seq("career points"), 0.85,
        r => f"${r.derive("p").longBetween(1000, 38000)}%,d (${5 + r.derive("pg").int(25)}.${r.derive("pd").int(10)} ppg)",
        Seq(row("Points") -> 0.75, row("Points", nested = false) -> 0.25), section = 4),
      AttrSpec("rebounds", Seq("career rebounds"), 0.85,
        r => f"${r.derive("p").longBetween(500, 17000)}%,d (${2 + r.derive("pg").int(12)}.${r.derive("pd").int(10)} rpg)",
        Seq(row("Rebounds") -> 0.75, row("Rebounds", nested = false) -> 0.25), section = 4),
      AttrSpec("assists", Seq("career assists"), 0.85,
        r => f"${r.derive("p").longBetween(300, 12000)}%,d (${1 + r.derive("pg").int(10)}.${r.derive("pd").int(10)} apg)",
        Seq(row("Assists") -> 0.75, row("Assists", nested = false) -> 0.25), section = 4),
      AttrSpec("career end", Nil, 0.7, r => V.year(r, 1975, 2022),
        Seq(row("Career end", nested = false) -> 1.0), section = 5),
      AttrSpec("website", Nil, 0.5,
        r => V.personName(r.derive("p")).toLowerCase.replace(" ", "") + ".com",
        Seq(row("Website", nested = false) -> 1.0), section = 5),
    )
    Setting("wiki-nba", "Wiki NBA", "HTML", attrs,
      fillerWordsPerSection = 280, nSections = 8)
  }

  // --------------------------------------------------------- SWDE Movie ---

  private val movieSiteNames =
    Vector("imdb", "allmovie", "amctv", "boxofficemojo", "hollywood",
           "metacritic", "msn", "rottentomatoes")

  private val movieTitleSeps =
    Vector(" - IMDb", " | AllMovie", " — AMC", " - Box Office Mojo",
           " | Hollywood.com", " - Metacritic", " | MSN Movies", " - Rotten Tomatoes")

  // Per-site label wording (index = site) — label drift across sites is what
  // separates the trained DOM baselines (Table 2) from each other.
  private val movieLabels: Map[String, Vector[String]] = Map(
    "director"     -> Vector("Director", "Directed By", "Director(s)", "Directed by", "Film Director", "Director", "Directed By", "Directed by"),
    "genre"        -> Vector("Genres", "Genre", "Genre", "Genres", "Category", "Genre(s)", "Genre", "Genres"),
    "mpaa rating"  -> Vector("Motion Picture Rating", "MPAA Rating", "Rated", "MPAA Rating", "Rating", "Rated", "MPAA", "Rated"),
    "runtime"      -> Vector("Runtime", "Run Time", "Running Time", "Runtime", "Length", "Runtime", "Run Time", "Running Time"),
    "cast"         -> Vector("Stars", "Cast", "Starring", "Cast", "Starring", "Principal Cast", "Cast", "Starring"),
    "writer"       -> Vector("Writer", "Written By", "Writer(s)", "Written by", "Screenwriter", "Writer", "Written By", "Written by"),
    "producer"     -> Vector("Producer", "Produced By", "Producer(s)", "Produced by", "Producer", "Producer", "Produced By", "Produced by"),
    "rating value" -> Vector("User Rating", "AllMovie Rating", "Score", "Audience Score", "Score", "Metascore", "Rating", "Tomatometer"),
    "country"      -> Vector("Country", "Country", "Country of Origin", "Country", "Country", "Country", "Country", "Country"),
  )

  /** Build one SWDE Movie site. Sites 0,3,5 put the year in an href; sites
    * 0,2,6 put the release date in a meta tag — attributes DOM-leaf
    * baselines cannot reach (SWDE-Plus).
    */
  private def movieSite(i: Int): Setting = {
    val siteName = movieSiteNames(i)
    val vt       = if (i % 2 == 0) "td" else "dd"
    def row(attr: String, nested: Boolean = false) =
      TagRowStyle(movieLabels(attr)(i), valueTag = vt, cls = s"$siteName-v",
        nested = nested, complexity = if (nested) 0.7 else 0.4)
    // In-site template drift: a second, rarer rendering of the same field.
    def altRow(attr: String) =
      TagRowStyle(movieLabels(attr)(i), valueTag = if (vt == "td") "div" else "td",
        cls = s"$siteName-alt", complexity = 0.5)

    val yearVariants: Seq[(Style, Double)] =
      if (Set(0, 3, 5).contains(i)) Seq(HrefStyle(s"/year/") -> 0.9, TagRowStyle("Year", vt) -> 0.1)
      else Seq(TagRowStyle("Year", vt, complexity = 0.4) -> 0.85, TagRowStyle("Release Year", vt, complexity = 0.4) -> 0.15)
    val dateVariants: Seq[(Style, Double)] =
      if (Set(0, 2, 6).contains(i)) Seq(MetaStyle("datePublished") -> 0.9, TagRowStyle("Release Date", vt) -> 0.1)
      else Seq(TagRowStyle("Release Date", vt, complexity = 0.4) -> 0.8, TagRowStyle("In Theaters", vt, complexity = 0.4) -> 0.2)

    val attrs = Seq(
      AttrSpec("title", Seq("movie title", "film title"), 1.0, V.movieTitle,
        Seq(TitleStyle(movieTitleSeps(i), siteName) -> 1.0), section = 0),
      AttrSpec("release date", Seq("date published", "released"), 0.9,
        r => V.dateLong(r, 1995, 2012), dateVariants, section = 0),
      AttrSpec("year", Seq("release year"), 0.95, r => V.year(r, 1995, 2012),
        yearVariants, section = 1),
      AttrSpec("director", Seq("directed by", "film director"), 1.0, V.personName,
        Seq(row("director") -> 0.85, altRow("director") -> 0.15), section = 1),
      AttrSpec("genre", Seq("genres", "category"), 0.95,
        r => r.derive("g").pick(V.genres),
        Seq(row("genre") -> 0.85, altRow("genre") -> 0.15), section = 1),
      AttrSpec("mpaa rating", Seq("rated", "rating"), 0.9, V.mpaa,
        Seq(row("mpaa rating") -> 0.85, altRow("mpaa rating") -> 0.15), section = 1),
      AttrSpec("runtime", Seq("running time", "length"), 0.95, V.runtimeMinutes,
        Seq(row("runtime") -> 0.85, altRow("runtime") -> 0.15), section = 2),
      AttrSpec("cast", Seq("starring", "stars"), 0.95, V.castList,
        Seq(row("cast", nested = true) -> 0.7, row("cast") -> 0.3), section = 2),
      AttrSpec("writer", Seq("written by", "screenwriter"), 0.8, V.personName,
        Seq(row("writer") -> 0.85, altRow("writer") -> 0.15), section = 2),
      AttrSpec("producer", Seq("produced by"), 0.7, V.personName,
        Seq(row("producer") -> 0.85, altRow("producer") -> 0.15), section = 3),
      AttrSpec("rating value", Seq("score", "user rating"), 0.85,
        r => s"${1 + r.derive("a").int(9)}.${r.derive("b").int(10)}/10",
        Seq(row("rating value") -> 0.85, altRow("rating value") -> 0.15), section = 3),
      AttrSpec("country", Nil, 0.9,
        r => r.derive("c").pick(Vector("USA", "UK", "France", "Canada", "Germany", "Japan")),
        Seq(row("country") -> 0.9, altRow("country") -> 0.1), section = 3),
    )
    Setting(s"swde-movie-$siteName", "SWDE Movie", "HTML", attrs,
      fillerWordsPerSection = 140, nSections = 6)
  }

  val movieSites: Seq[Setting] = movieSiteNames.indices.map(movieSite)

  // ---------------------------------------------------- SWDE University ---

  private val uniSiteNames =
    Vector("collegeprowler", "ecampustours", "embark", "matchcollege", "usnews")

  private val uniLabels: Map[String, Vector[String]] = Map(
    "phone"           -> Vector("Phone", "Phone Number", "Telephone", "Contact Phone", "Phone"),
    "type"            -> Vector("Type", "Institution Type", "School Type", "Type of School", "Type"),
    "tuition"         -> Vector("Tuition", "Annual Tuition", "Tuition & Fees", "In-State Tuition", "Tuition and Fees"),
    "enrollment"      -> Vector("Student Body Size", "Enrollment", "Total Enrollment", "Students Enrolled", "Enrollment"),
    "city"            -> Vector("City", "City", "Location City", "City", "City"),
    "state"           -> Vector("State", "State", "State", "State/Province", "State"),
    "founded"         -> Vector("Founded", "Year Founded", "Established", "Founded In", "Founded"),
    "acceptance rate" -> Vector("Acceptance Rate", "Admission Rate", "Acceptance Rate", "Percent Admitted", "Acceptance Rate"),
  )

  private def uniSite(i: Int): Setting = {
    val siteName = uniSiteNames(i)
    val vt       = if (i % 2 == 0) "span" else "td"
    def row(attr: String) =
      TagRowStyle(uniLabels(attr)(i), valueTag = vt, cls = "stat", complexity = 0.4)
    def altRow(attr: String) =
      TagRowStyle(uniLabels(attr)(i), valueTag = if (vt == "td") "span" else "td",
        cls = "stat-alt", complexity = 0.5)

    val websiteVariants: Seq[(Style, Double)] =
      if (i % 2 == 0) Seq(HrefStyle("/goto/") -> 0.85, TagRowStyle("Website", vt, complexity = 0.4) -> 0.15)
      else Seq(TagRowStyle("Website", vt, complexity = 0.4) -> 0.9, TagRowStyle("Web Site", vt, complexity = 0.4) -> 0.1)

    val attrs = Seq(
      AttrSpec("name", Seq("university name", "school name"), 1.0, V.universityName,
        Seq(TitleStyle(s" | $siteName", siteName) -> 0.9, MetaStyle("name") -> 0.1), section = 0),
      AttrSpec("website", Seq("web site", "url"), 0.85,
        r => "www." + r.derive("s").pick(V.universityStems).toLowerCase + ".edu",
        websiteVariants, section = 0),
      AttrSpec("phone", Seq("phone number", "telephone"), 0.9, V.phone,
        Seq(row("phone") -> 0.85, altRow("phone") -> 0.15), section = 1),
      AttrSpec("type", Seq("institution type", "school type"), 0.95,
        r => r.derive("t").pick(Vector("Public", "Private", "Private (not-for-profit)", "Public (state)")),
        Seq(row("type") -> 0.85, altRow("type") -> 0.15), section = 1),
      AttrSpec("tuition", Seq("tuition and fees", "annual tuition"), 0.9,
        r => V.money(r, 4000, 58000), Seq(row("tuition") -> 0.85, altRow("tuition") -> 0.15), section = 1),
      AttrSpec("enrollment", Seq("student body size", "total enrollment"), 0.9,
        r => f"${r.derive("e").longBetween(900, 52000)}%,d",
        Seq(row("enrollment") -> 0.85, altRow("enrollment") -> 0.15), section = 2),
      AttrSpec("city", Nil, 0.95, r => r.derive("c").pick(V.cities),
        Seq(row("city") -> 0.9, altRow("city") -> 0.1), section = 2),
      AttrSpec("state", Nil, 0.95, r => r.derive("s").pick(V.states),
        Seq(row("state") -> 0.9, altRow("state") -> 0.1), section = 2),
      AttrSpec("founded", Seq("year founded", "established"), 0.85,
        r => V.year(r, 1820, 1990), Seq(row("founded") -> 0.85, altRow("founded") -> 0.15), section = 3),
      AttrSpec("acceptance rate", Seq("admission rate"), 0.8,
        r => s"${15 + r.derive("a").int(80)}%",
        Seq(row("acceptance rate") -> 0.85, altRow("acceptance rate") -> 0.15), section = 3),
    )
    Setting(s"swde-university-$siteName", "SWDE University", "HTML", attrs,
      fillerWordsPerSection = 120, nSections = 5)
  }

  val uniSites: Seq[Setting] = uniSiteNames.indices.map(uniSite)

  // ---------------------------------------------------------------- all ---

  /** All 16 settings, in reporting order. */
  val all: Seq[Setting] = Seq(fda, enron, nba) ++ movieSites ++ uniSites

  def byName(name: String): Setting =
    all.find(_.name == name).getOrElse(sys.error(s"unknown setting '$name'"))
}
