package org.apache.spark

/** Listener events arrive asynchronously. The trace reads job spans only
  * after every event posted so far has been delivered; the bus that does
  * this is package-private to Spark, hence this bridge.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
