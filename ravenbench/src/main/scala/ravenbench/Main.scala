package ravenbench

import java.io.File
import scala.collection.mutable.ArrayBuffer
import scala.util.{Failure, Success, Try}
import org.apache.spark.BenchHooks
import org.apache.spark.sql.SparkSession
import repro.core.ir.{IRJoin, IRNNPredict, IRNode, IRPredict}
import repro.ml.ColPredicate
import repro.sparkext.Raven

/** Runs one workload in this JVM and prints its report; the last line,
  * `RESULT {...}`, is the machine-readable result run.py passes on.
  *
  * Phases: set-up (repeated [[SetupReps]] times, each in a fresh
  * SparkSession with fresh model state; the median is `setup_s`), oracle
  * precomputation, warm-up, then a closed loop with one client for
  * `--seconds`. With `--trace 1` a second, traced loop follows the untraced
  * one; it records spans and Spark's counters around every op, and then
  * single-thread replays measure the ml and onnx layers.
  */
object Main {

  val SetupReps = 3
  /** A percentile is reported only with at least ten samples beyond it. */
  val MinP90Samples = 100
  val ReplayRows = 20000
  val RavenRuleNames = Seq("PredicateModelPruning", "ModelProjectionPushdown", "ModelInlining", "JoinElimination")

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, work: File, out: File)

  /** Counters read around one successful op of the traced loop. */
  final case class Traced(
      facts: PlanFacts,
      phasesMs: Map[String, Double],
      rules: Map[String, (Long, Long, Long)],
      compiles: Long,
      compileNs: Long,
      executeMs: Double,
      cpuNs: Long,
      gcMs: Long,
      shuffleBytes: Long,
      nnTranslated: Int,
      joinsRemoved: Int,
      modelNodes: Int,
      modelFeatures: Int,
  )

  final case class Record(kind: String, ns: Long, error: Option[String], rowsScored: Long,
      derivesFor: Option[Seq[ColPredicate]], traced: Option[Traced]) {
    def ok: Boolean = error.isEmpty
  }

  final case class Metric(name: String, value: Double, unit: String)

  def parse(args: Array[String]): Args = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      new File(need("work")), new File(m.getOrElse("out", need("work"))))
  }

  def session(args: Args, cores: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"ravenbench-${args.workload}")
      .config("spark.ui.enabled", false)
      .config("spark.sql.shuffle.partitions", cores)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.local.dir", new File(args.work, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(args.work, "warehouse").getAbsolutePath)
      .getOrCreate()

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val workload = Workload.byName(args.workload)
    val cores = Runtime.getRuntime.availableProcessors

    var inst: Instance = null
    val setupS = (1 to SetupReps).map { _ =>
      if (inst != null) inst.release()
      val t0 = System.nanoTime()
      val spark = session(args, cores)
      Raven.install(spark)
      inst = workload.setup(spark, args.seed)
      (System.nanoTime() - t0) / 1e9
    }
    val t0 = System.nanoTime()
    inst.prepareOracle()
    val t1 = System.nanoTime()
    warmUp(inst, cores)
    val t2 = System.nanoTime()

    val stream = inst.stream
    val plain = loop(inst, stream, args.seconds, new Tracer(false), None)
    val heapMb = heapAfterGc()

    println(s"== ${workload.name}  seed ${args.seed}  local[$cores]  ${args.seconds} s closed loop, 1 client ==")
    println(f"set-up runs (s): ${setupS.map(s => f"$s%.3f").mkString(", ")}; oracle ${(t1 - t0) / 1e9}%.1f s, warm-up ${(t2 - t1) / 1e9}%.1f s")
    val e2e = endToEnd(plain, Stats.median(setupS), heapMb)
    report(plain, e2e)

    val (metrics, records, rowsOk) =
      if (!args.trace) (e2e, plain, true)
      else {
        val tracer = new Tracer(true)
        val counters = new TaskCounters
        inst.spark.sparkContext.addSparkListener(counters)
        val traced = loop(inst, stream, args.seconds, tracer, Some(counters))
        inst.spark.sparkContext.removeSparkListener(counters)
        tracer.write(new File(args.out, s"${workload.name}-${args.seed}.spans.jsonl"))
        val (layer, ok) = perLayer(inst, plain, traced, tracer)
        (layer, plain ++ traced, ok)
      }
    inst.release()

    val failed = records.count(!_.ok)
    // Every op is checked; one failed op, or a metric that could not be
    // measured, makes the run incorrect.
    val measured = metrics.forall(m => !m.value.isNaN && !m.value.isInfinite)
    val correct = rowsOk && measured && records.nonEmpty && failed == 0
    println(s"oracle verdict: ${records.size - failed} of ${records.size} ops agree with the oracle, " +
      f"$failed failed (failed_frac ${failed.toDouble / records.size}%.4f); correct: $correct")
    println("RESULT " + json(correct, records.size, failed, metrics))
  }

  /** Runs [[Instance.warmupOps]] warm-up ops, shared among `clients`
    * concurrent threads. Concurrent clients give the JIT compiler the
    * driver-side work (planning, codegen) several times faster than one
    * client would, so the measured loop starts nearer to steady state. The
    * count, not a time, ends the warm-up, so the loop starts from the same
    * point of the JIT compiler's progress when the host is busier.
    */
  def warmUp(inst: Instance, clients: Int): Unit = {
    val ops = inst.warmup()
    val next = new java.util.concurrent.atomic.AtomicInteger()
    val threads = (0 until clients).map { c =>
      new Thread(() => {
        var i = next.getAndIncrement()
        while (i < inst.warmupOps) { Try(ops(i % ops.size).run(new Tracer(false))); i = next.getAndIncrement() }
      })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
  }

  // ---- the closed loop -------------------------------------------------------

  def loop(inst: Instance, ops: Iterator[Op], seconds: Int, tr: Tracer, counters: Option[TaskCounters]): Seq[Record] = {
    val out = ArrayBuffer[Record]()
    val deadline = System.nanoTime() + seconds * 1000000000L
    while (System.nanoTime() < deadline) {
      val op = ops.next()
      op.reset()
      tr.beginOp(out.size)
      val compiles0 = BenchHooks.codegenCompiles
      val compileNs0 = BenchHooks.codegenCompileNs
      val k0 = counters.map(_.snapshot)
      val t0 = System.nanoTime()
      val res = Try(tr.span("op")(op.run(tr)))
      val ns = System.nanoTime() - t0
      val compiles = BenchHooks.codegenCompiles - compiles0
      val compileNs = BenchHooks.codegenCompileNs - compileNs0
      val error = res match {
        case Failure(e) => Some(s"${e.getClass.getSimpleName}: ${String.valueOf(e.getMessage).linesIterator.nextOption().getOrElse("")}")
        case Success(ex) => Op.verify(ex.answer, op.expected(), op.relTol, op.absTol).map("wrong answer: " + _)
      }
      val traced = counters.flatMap { c =>
        BenchHooks.drainListenerBus(inst.spark.sparkContext)
        val jobs = c.takeJobs()
        val (cpu0, gc0, sh0) = k0.get
        val (cpu1, gc1, sh1) = c.snapshot
        res.toOption.filter(_ => error.isEmpty).map { ex =>
          val tracker = ex.qe.tracker
          val phases = tracker.phases.map { case (k, p) =>
            tr.recordWall(s"spark.$k", p.startTimeMs, p.endTimeMs)
            k -> p.durationMs.toDouble
          }
          jobs.foreach { case (s, e) => tr.recordWall("spark.job", s, e) }
          val rules = tracker.rules.toSeq.map { case (n, r) => n.split('$').last -> r }
            .filter { case (n, _) => RavenRuleNames.contains(n) }
            .map { case (n, r) => n -> (r.totalTimeNs, r.numInvocations, r.numEffectiveInvocations) }.toMap
          val facts = PlanFacts.of(ex.qe)
          // The IR path's model never reaches the Catalyst plan; read it from the IR.
          val (nn, joinsRemoved, nodes, feats) = ex.ir match {
            case Some((before, after)) =>
              val mp = before.collectNodes.collectFirst { case IRPredict(_, mp, _) => mp }
              (count(after) { case _: IRNNPredict => },
                count(before) { case _: IRJoin => } - count(after) { case _: IRJoin => },
                mp.map(m => PlanFacts.modelSize(m.model)).getOrElse(0), mp.map(_.pipeline.numFeatures).getOrElse(0))
            case None => (0, 0, facts.modelNodes, facts.modelFeatures)
          }
          Traced(facts, phases, rules, compiles, compileNs, Stats.unionLength(jobs).toDouble,
            cpu1 - cpu0, gc1 - gc0, sh1 - sh0, nn, joinsRemoved, nodes, feats)
        }
      }
      out += Record(op.kind, ns, error, op.rowsScored(), op.derivesFor, traced)
    }
    out.toSeq
  }

  private def count(ir: IRNode)(pf: PartialFunction[IRNode, Unit]): Int = ir.collectNodes.count(pf.isDefinedAt)

  def heapAfterGc(): Double = {
    System.gc()
    System.gc()
    java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  // ---- metrics -------------------------------------------------------------

  /** End-to-end metrics. Rates are per second of op time: the client waits
    * on the program for that time; the oracle's checks between ops are not
    * counted.
    */
  def endToEnd(rs: Seq[Record], setupS: Double, heapMb: Double): Seq[Metric] = {
    val ok = rs.filter(_.ok)
    val busyS = rs.map(_.ns).sum / 1e9
    val lat = ok.map(_.ns / 1e6)
    Seq(
      Metric("setup_s", setupS, "s"),
      Metric("latency_p50_ms", Stats.median(lat), "ms"),
      Metric("rows_per_s", ok.map(_.rowsScored).sum / busyS, "1/s"),
      Metric("queries_per_s", ok.size / busyS, "1/s"),
      Metric("heap_mb", heapMb, "MB"),
    )
  }

  def report(rs: Seq[Record], e2e: Seq[Metric]): Unit = {
    val ok = rs.filter(_.ok)
    e2e.foreach(m => println(f"  ${m.name}%-16s ${m.value}%14.3f ${m.unit}"))
    val p90 =
      if (ok.size >= MinP90Samples) f"${Stats.quantile(ok.map(_.ns / 1e6), 0.9)}%14.3f ms"
      else s"           n/a ms (${ok.size} successful ops; needs $MinP90Samples)"
    println(s"  latency_p90_ms   $p90")
    println(f"  failed_frac      ${rs.count(!_.ok).toDouble / rs.size}%14.4f (${rs.count(!_.ok)} of ${rs.size} ops)")
    rs.groupBy(_.kind).toSeq.sortBy(_._1).foreach { case (kind, xs) =>
      val errs = xs.flatMap(_.error).groupBy(identity).toSeq.sortBy(-_._2.size)
        .map { case (e, n) => s"${n.size}× $e" }.mkString("; ")
      println(f"    $kind%-12s ${xs.size}%4d ops ${xs.count(_.ok)}%4d ok  " +
        f"p50 ${Stats.median(xs.filter(_.ok).map(_.ns / 1e6))}%9.2f ms  $errs")
    }
  }

  def perLayer(inst: Instance, plain: Seq[Record], traced: Seq[Record], tr: Tracer): (Seq[Metric], Boolean) = {
    val ts = traced.flatMap(r => r.traced.map(r -> _))
    def med(f: Traced => Double): Double = Stats.median(ts.map(x => f(x._2)))
    def avg(f: Traced => Double): Double = Stats.mean(ts.map(x => f(x._2)))

    val rowsScored = ts.map(_._2.facts.rowsScored).sum
    val oracleRows = ts.map(_._1.rowsScored).sum
    val rowsOk = rowsScored == oracleRows && ts.nonEmpty

    val raw = inst.sampleRaw(ReplayRows)
    val ml = Replays.ml(inst.base, raw)
    val sets = traced.flatMap(_.derivesFor).distinct
    val deriveMs = Replays.deriveMs(inst.base, sets)
    val onnx = Replays.onnx(inst.base, raw)
    val overhead = Stats.median(traced.filter(_.ok).map(_.ns.toDouble)) /
      Stats.median(plain.filter(_.ok).map(_.ns.toDouble)) - 1
    val probe = inst.probe().map { op =>
      op.reset()
      val res = Try(op.run(new Tracer(false)))
      val error = res match {
        case Failure(e) => Some(e.getClass.getSimpleName)
        case Success(ex) => Op.verify(ex.answer, op.expected(), op.relTol, op.absTol)
      }
      op.kind -> error
    }

    val rules = RavenRuleNames.flatMap { r =>
      def part(f: ((Long, Long, Long)) => Long) = (t: Traced) => t.rules.get(r).map(f).getOrElse(0L).toDouble
      Seq(
        Metric(s"sparkext.rule.$r.ns", med(part(_._1)), "ns"),
        Metric(s"sparkext.rule.$r.invocations", avg(part(_._2)), "count"),
        Metric(s"sparkext.rule.$r.effective", avg(part(_._3)), "count"))
    }
    val metrics = Seq(
      Metric("ml.featurize_ns_per_row", ml.featurizeNs, "ns"),
      Metric("ml.model_ns_per_row", ml.modelNs, "ns"),
      Metric("ml.predict_raw_ns_per_row", ml.predictRawNs, "ns"),
      Metric("ml.derive_ms", if (deriveMs.isEmpty) 0.0 else Stats.median(deriveMs), "ms"),
      Metric("ml.model_nodes", med(_.modelNodes), "count"),
      Metric("ml.model_features", med(_.modelFeatures), "count"),
    ) ++ rules ++ Seq(
      Metric("sparkext.plan.predict_exprs", avg(_.facts.predictExprs), "count"),
      Metric("sparkext.plan.inlined", avg(_.facts.inlined), "count"),
      Metric("sparkext.plan.joins", avg(_.facts.joins), "count"),
      Metric("sparkext.plan.scan_cols", avg(_.facts.scanCols), "count"),
      Metric("sparkext.registry.derived_ids", ts.flatMap(_._2.facts.modelIds).distinct.size, "count"),
      Metric("sparkext.registry.shared_probe_correct", probe.count(_._2.isEmpty), "count"),
      Metric("sparkext.path.inline_budget", Raven.DefaultInlineMaxNodes, "count"),
      Metric("spark.analysis_ms", med(_.phasesMs.getOrElse("analysis", 0.0)), "ms"),
      Metric("spark.optimization_ms", med(_.phasesMs.getOrElse("optimization", 0.0)), "ms"),
      Metric("spark.planning_ms", med(_.phasesMs.getOrElse("planning", 0.0)), "ms"),
      Metric("spark.codegen_compiles", avg(_.compiles), "count"),
      Metric("spark.codegen_compile_ms", avg(_.compileNs / 1e6), "ms"),
      Metric("spark.execute_ms", med(_.executeMs), "ms"),
      Metric("spark.task_cpu_ms", med(_.cpuNs / 1e6), "ms"),
      Metric("spark.gc_ms", avg(_.gcMs), "ms"),
      Metric("spark.shuffle_write_bytes", med(_.shuffleBytes), "bytes"),
      Metric("spark.rows_scored", avg(_.facts.rowsScored.toDouble), "count"),
      Metric("core.analysis.analyze_us", spanMedian(tr, "core.analysis.analyzeSql") / 1e3, "us"),
      Metric("core.opt.optimize_us", spanMedian(tr, "core.opt.optimize") / 1e3, "us"),
      Metric("core.opt.nn_translated", avg(_.nnTranslated), "count"),
      Metric("core.opt.joins_removed", avg(_.joinsRemoved), "count"),
      Metric("core.codegen.lower_ms", spanMedian(tr, "core.codegen.toDataFrame") / 1e6, "ms"),
      Metric("onnx.session_build_ms", onnx.buildMs, "ms"),
      Metric("onnx.session_ns_per_row", onnx.nsPerRow, "ns"),
      Metric("onnx.session_cache_size", repro.onnx.SessionCache.size, "count"),
      Metric("linalg.flops_per_row", onnx.flopsPerRow, "flop"),
      Metric("linalg.bytes_per_row", onnx.bytesPerRow, "bytes"),
      Metric("trace.overhead_pct", overhead * 100, "%"),
      Metric("trace.spans", tr.spans.size, "count"),
    )

    println(s"-- traced loop: ${traced.size} ops, ${ts.size} read out --")
    println(f"  ${"span"}%-28s ${"count"}%6s ${"total ms"}%10s ${"self ms/op"}%11s")
    tr.selfTimes.foreach { case (name, n, total, self) =>
      println(f"  $name%-28s $n%6d ${total / 1e6}%10.1f ${self / 1e6 / math.max(1, traced.size)}%11.3f")
    }
    metrics.foreach(m => println(f"  ${m.name}%-44s ${m.value}%16.3f ${m.unit}"))
    if (probe.nonEmpty)
      println(s"  shared-registry probe: ${probe.count(_._2.isEmpty)} of ${probe.size} queries agree with the oracle: " +
        probe.map { case (k, e) => s"$k ${e.getOrElse("ok")}" }.mkString("; "))
    println(s"  rows scored by plan metrics $rowsScored, by the oracle $oracleRows: " +
      (if (rowsOk) "agree" else "DISAGREE"))
    (metrics, rowsOk)
  }

  private def spanMedian(tr: Tracer, name: String): Double = {
    val ds = tr.spans.filter(_.name == name).map(_.durNs.toDouble).toSeq
    if (ds.isEmpty) 0.0 else Stats.median(ds)
  }

  // ---- output --------------------------------------------------------------

  def json(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    def num(v: Double) = if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
