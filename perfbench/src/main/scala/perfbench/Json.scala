package perfbench

import scala.collection.mutable
import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule

/** JSON for the result lines and trace files, through the Jackson that ships with Spark. */
object Json {
  private val mapper = new ObjectMapper().registerModule(DefaultScalaModule)

  def encode(v: Any): String = mapper.writeValueAsString(v)

  /** An object whose keys print in the order given. */
  def obj(kvs: (String, Any)*): mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap(kvs: _*)
}
