package org.apache.spark

import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.catalyst.expressions.codegen.CodeGenerator

/** Read-only access to Spark counters that are package-private: the
  * listener bus (to wait until every task-end event has been delivered)
  * and the whole-process codegen compile counters.
  */
object BenchHooks {

  /** Block until the listener bus has delivered all posted events. */
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Number of generated classes Janino has compiled in this JVM. */
  def codegenCompiles: Long = CodegenMetrics.METRIC_COMPILATION_TIME.getCount

  /** Total codegen compile time in this JVM, nanoseconds. */
  def codegenCompileNs: Long = CodeGenerator.compileTime
}
