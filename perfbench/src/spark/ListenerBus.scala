package org.apache.spark

/** Access to the driver's listener bus, which Spark keeps package-private:
  * the benchmark waits for queued events before reading `SparkLayers`.
  */
object PerfbenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
