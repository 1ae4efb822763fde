package ravenbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.functions.{col, count, lit, sum}
import repro.core.analysis.StaticAnalyzer
import repro.core.codegen.RuntimeCodeGenerator
import repro.core.ir.{IRNode, SchemaCatalog, TableDef}
import repro.core.opt.{CrossOptimizer, OptimizerConfig}
import repro.data.HospitalData
import repro.data.HospitalData.Joined
import repro.ml._
import repro.sparkext.{ModelRegistry, Raven}
import repro.sparkext.RavenRules.RavenIntegrity

/** An op's answer, as returned by the program or computed by the oracle. */
sealed trait Answer
final case class CountSum(count: Long, sum: Double) extends Answer
final case class Scores(ids: Array[Long], scores: Array[Double]) extends Answer

/** What one op returned, plus the handles the traced run reads afterwards. */
final case class Executed(answer: Answer, qe: QueryExecution, ir: Option[(IRNode, IRNode)])

/** One operation of a workload's closed loop.
  *
  * @param run        the calls into the program; the only part that is timed
  * @param expected   the Spark-free oracle's answer, computed after the op
  * @param rowsScored input rows the model scores in this op, by the oracle
  * @param relTol     relative tolerance on scores and sums
  * @param absTol     absolute tolerance on scores and sums
  * @param derivesFor predicates a Raven derivation specializes the model for
  *                   (None when the path derives nothing)
  * @param reset      untimed preparation of program state before the op runs
  */
final case class Op(
    kind: String,
    run: Tracer => Executed,
    expected: () => Answer,
    rowsScored: () => Long,
    relTol: Double,
    absTol: Double,
    derivesFor: Option[Seq[ColPredicate]],
    reset: () => Unit = () => (),
)

object Op {
  /** None when `got` matches `want`, else a one-line description of the difference. */
  def verify(got: Answer, want: Answer, relTol: Double, absTol: Double): Option[String] = {
    def close(a: Double, b: Double) = math.abs(a - b) <= math.max(relTol * math.abs(b), absTol)
    (got, want) match {
      case (CountSum(gc, gs), CountSum(wc, ws)) =>
        if (gc != wc) Some(s"count $gc, expected $wc")
        else if (!close(gs, ws)) Some(s"sum $gs, expected $ws")
        else None
      case (Scores(gi, gs), Scores(wi, ws)) =>
        if (!java.util.Arrays.equals(gi, wi)) Some(s"${gi.length} rows, expected ${wi.length} (ids differ)")
        else {
          val bad = gs.indices.count(i => !close(gs(i), ws(i)))
          if (bad > 0) Some(s"$bad of ${gs.length} scores wrong") else None
        }
      case _ => Some("answer of the wrong shape")
    }
  }
}

/** A workload set up in one SparkSession: its tables are cached, its model
  * trained and deployed.
  */
trait Instance {
  def spark: SparkSession
  /** The table data seed, [[Workload.dataSeed]] of the workload seed. */
  def dataSeed: Long
  /** The deployed model pipeline the workload scores with. */
  def base: ModelPipeline
  /** Untimed precomputation the oracle needs. */
  def prepareOracle(): Unit
  /** Ops that warm the JVM and Spark before measuring; not timed or checked.
    * They run in a cycle until [[warmupOps]] have run.
    */
  def warmup(): Seq[Op]
  def warmupOps: Int
  /** The seeded closed-loop op stream. */
  def stream: Iterator[Op]
  /** Ops run once, in order and unmeasured, after the traced loop; the
    * traced run reports how many of them agree with the oracle.
    */
  def probe(): Seq[Op] = Nil
  /** Raw input rows of the workload's data, in `base.inputCols` order. */
  def sampleRaw(n: Int): Array[IndexedSeq[Any]] =
    Array.tabulate(n)(i => HospitalData.rawValues(HospitalData.joinedRow(i.toLong, dataSeed)))

  /** Drop cached tables, stop Spark and clear process-wide model state. */
  def release(): Unit = {
    spark.catalog.clearCache()
    spark.stop()
    ModelRegistry.clear()
    repro.onnx.SessionCache.clear()
    RavenIntegrity.clear()
  }
}

trait Workload {
  def name: String
  /** Generate and cache the data, train and deploy the model (timed as set-up). */
  def setup(spark: SparkSession, seed: Long): Instance
}

object Workload {
  val all: Seq[Workload] = Seq(ScanScore, CohortMix, NnPipeline)
  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(s"unknown workload '$n'"))

  /** Training set shared by every model: fixed, so model sizes (and hence
    * the execution path the optimizer picks) are the same for every seed.
    */
  val TrainN = 20000
  val TrainSeed = 7101L

  def trainingSet(): (Array[Array[Double]], Array[Double]) =
    HospitalData.featurized(HospitalData.localJoined(TrainN, TrainSeed))

  /** The table data seed for a workload seed. */
  def dataSeed(seed: Long): Long = 1000003L * seed + 17L

  def cache(df: DataFrame, view: String): DataFrame = {
    val c = df.cache()
    c.count()
    c.createOrReplaceTempView(view)
    c
  }

  /** Σ f(i) over [0, n) split across the cores, for oracle precomputation. */
  def parallelFill(n: Int)(f: Int => Double): Array[Double] = {
    val out = new Array[Double](n)
    java.util.stream.IntStream.range(0, n).parallel().forEach(i => out(i) = f(i))
    out
  }

  def predictSql(mp: ModelPipeline, qualify: String => String = identity): String =
    s"raven_predict('${mp.id}', ${mp.inputCols.map(qualify).mkString(", ")})"
}

// ---- scan_score ---------------------------------------------------------------

/** Repeats one full-table aggregate over a PREDICT that is not inlined: the
  * 10-tree forest has more nodes than the inline budget, so every row goes
  * through the per-row `PredictExpression` path.
  */
object ScanScore extends Workload {
  val name = "scan_score"
  val Rows = 1000000

  def setup(spark0: SparkSession, seed: Long): Instance = new Instance {
    val spark: SparkSession = spark0
    val dataSeed: Long = Workload.dataSeed(seed)
    private val table = Workload.cache(HospitalData.joinedDf(spark, Rows, dataSeed), "hospital")
    val base: ModelPipeline = {
      val (x, y) = Workload.trainingSet()
      val forest = RandomForest.train(x, y, isClassifier = false, numTrees = 10, maxDepth = 5, minSamplesLeaf = 20)
      ModelPipeline("hospital_rf", HospitalData.pipeline, None, forest)
    }
    Raven.deploy(base)
    private val query = s"SELECT count(*) AS n, sum(${Workload.predictSql(base)}) AS s FROM hospital"
    private var total = Double.NaN

    def prepareOracle(): Unit =
      total = Workload.parallelFill(Rows)(i =>
        base.predictRaw(HospitalData.rawValues(HospitalData.joinedRow(i.toLong, dataSeed)))).sum

    private val op = Op("scan", tr => {
      val df = tr.span("spark.sql")(spark.sql(query))
      val row = tr.span("spark.collect")(df.collect().head)
      Executed(CountSum(row.getLong(0), row.getDouble(1)), df.queryExecution, None)
    }, () => CountSum(Rows, total), () => Rows.toLong, 1e-9, 1e-9, Some(Nil))

    val warmupOps = 12
    def warmup(): Seq[Op] = Seq(op, op)
    def stream: Iterator[Op] = Iterator.continually(op)
  }
}

// ---- cohort_mix ---------------------------------------------------------------

/** A cohort predicate added to a Fig. 1-shaped query.
  *
  * @param sql       conjunct over the aliases p (patient_info), b, t
  * @param keep      the same predicate on a joined row, for the oracle
  * @param scoreOver keep only rows whose score exceeds this
  * @param preds     the constraints the predicate puts on model inputs
  */
final case class Cohort(kind: String, sql: Option[String], keep: Joined => Boolean,
    scoreOver: Option[Double], preds: Seq[ColPredicate])

/** A seeded stream of Fig. 1-shaped inference queries: a three-way FK join
  * scored by a decision tree small enough to inline, over a ~5K-row
  * patient_id window, each with a cohort predicate drawn with skew from a
  * pool. Each query starts from a registry that holds only the deployed
  * models, so it derives its own specialization. Most of an op's time is
  * planning, derivation, inlining, codegen and join execution; model
  * evaluation is small.
  *
  * Why each query starts afresh: the registry's derivation cache is wrong
  * across queries (ROADMAP item 1), so a query that meets a specialization
  * an earlier query left behind can throw or return wrong rows, and which
  * queries do depends on how many ran before. The traced run's
  * [[Instance.probe]] runs the pool through one shared registry and counts
  * the queries that come out right.
  */
object CohortMix extends Workload {
  val name = "cohort_mix"
  val Rows = 300000
  val Window = 5000

  /** Cohort kinds and how many of each a block of 11 queries holds; each
    * block is shuffled by the seed. The paper's Fig. 1 cohorts (pregnant = 1,
    * alone or with a blood-pressure threshold) are the heaviest entries.
    * The weights (4, 2, 1), the Zipf exponent of [[zipf]] and the parameter
    * lists below are this benchmark's own choice, not measured traffic; the
    * workload's latency and rates depend on them.
    */
  val BlockMix: Seq[(String, Int)] = Seq(
    "pregnant1" -> 4, "bp" -> 2, "none" -> 1, "pregnant0" -> 1, "gender" -> 1,
    "age" -> 1, "score" -> 1)

  private val AgeLows = IndexedSeq(35, 50, 18, 25, 60, 40, 30, 45, 55, 65, 20, 70)
  private val AgeWidths = IndexedSeq(15, 10, 20, 30)
  private val BpThresholds = IndexedSeq(140, 130, 150, 120, 160, 135, 145, 155, 125, 165)

  private def zipf(r: scala.util.Random, n: Int): Int = {
    val w = Array.tabulate(n)(k => 1.0 / math.pow(k + 1, 1.1))
    var u = r.nextDouble() * w.sum
    var k = 0
    while (k < n - 1 && u >= w(k)) { u -= w(k); k += 1 }
    k
  }

  def cohort(kind: String, r: scala.util.Random): Cohort = kind match {
    case "none" => Cohort(kind, None, _ => true, None, Nil)
    case "pregnant1" =>
      Cohort(kind, Some("p.pregnant = 1"), _.pregnant == 1, None,
        Seq(NumRange("pregnant", FeatureConstraint.equalTo(1))))
    case "pregnant0" =>
      Cohort(kind, Some("p.pregnant = 0"), _.pregnant == 0, None,
        Seq(NumRange("pregnant", FeatureConstraint.equalTo(0))))
    case "gender" =>
      val g = if (zipf(r, 2) == 0) "F" else "M"
      Cohort(kind, Some(s"p.gender = '$g'"), _.gender == g, None, Seq(CatEquals("gender", g)))
    case "age" =>
      val lo = AgeLows(zipf(r, AgeLows.size))
      val hi = lo + AgeWidths(zipf(r, AgeWidths.size))
      Cohort(kind, Some(s"p.age >= $lo AND p.age < $hi"), j => j.age >= lo && j.age < hi, None,
        Seq(NumRange("age", FeatureConstraint(lo = lo, hi = hi, hiStrict = true))))
    case "bp" =>
      val t = BpThresholds(zipf(r, BpThresholds.size))
      Cohort(kind, Some(s"p.pregnant = 1 AND t.bp > $t"), j => j.pregnant == 1 && j.bp > t, None,
        Seq(NumRange("pregnant", FeatureConstraint.equalTo(1)), NumRange("bp", FeatureConstraint.greaterThan(t))))
    case "score" => Cohort(kind, None, _ => true, Some(7.0), Nil)
  }

  /** The cohort stream for a seed: shuffled blocks of [[BlockMix]]. */
  def cohorts(seed: Long): Iterator[(Cohort, Int)] = {
    val r = new scala.util.Random(seed)
    val block = BlockMix.flatMap { case (k, n) => Seq.fill(n)(k) }
    Iterator.continually(r.shuffle(block)).flatten.map(k => (cohort(k, r), r.nextInt(Rows - Window)))
  }

  private def qualify(c: String): String = c match {
    case "age" | "pregnant" | "num_prev_admissions" | "gender" => s"p.$c"
    case "bp" | "fetal_hr" | "gestation_weeks"                 => s"t.$c"
    case other                                                 => s"b.$other"
  }

  def setup(spark0: SparkSession, seed: Long): Instance = new Instance {
    val spark: SparkSession = spark0
    val dataSeed: Long = Workload.dataSeed(seed)
    Workload.cache(HospitalData.patientInfo(spark, Rows, dataSeed), "patient_info")
    Workload.cache(HospitalData.bloodTests(spark, Rows, dataSeed), "blood_tests")
    Workload.cache(HospitalData.prenatalTests(spark, Rows, dataSeed), "prenatal_tests")
    RavenIntegrity.declareRowPreserving("patient_id", "patient_id")
    val base: ModelPipeline = {
      val (x, y) = Workload.trainingSet()
      ModelPipeline("hospital_dt", HospitalData.pipeline, None,
        DecisionTree.train(x, y, isClassifier = false, maxDepth = 8, minSamplesLeaf = 20))
    }
    Raven.deploy(base)

    def prepareOracle(): Unit = ()

    /** Leaves only the measured model in the registry. */
    private def isolate(): Unit = { ModelRegistry.clear(); Raven.deploy(base) }

    private def op(c: Cohort, lo: Int, reset: () => Unit = () => ()): Op = {
      val predict = Workload.predictSql(base, qualify)
      val where = Seq(s"p.patient_id >= $lo", s"p.patient_id < ${lo + Window}") ++ c.sql ++
        c.scoreOver.map(t => s"$predict > $t")
      val query =
        s"""SELECT p.patient_id, $predict AS score
           |FROM patient_info p
           |JOIN blood_tests b ON p.patient_id = b.patient_id
           |JOIN prenatal_tests t ON p.patient_id = t.patient_id
           |WHERE ${where.mkString(" AND ")}""".stripMargin
      lazy val oracle: (Scores, Long) = {
        val rows = (lo until lo + Window).map(i => HospitalData.joinedRow(i.toLong, dataSeed)).filter(c.keep)
        val scored = rows.map(j => (j.patient_id, base.predictRaw(HospitalData.rawValues(j))))
        val kept = scored.filter { case (_, s) => c.scoreOver.forall(s > _) }
        (Scores(kept.map(_._1).toArray, kept.map(_._2).toArray), rows.size.toLong)
      }
      Op(c.kind, tr => {
        val df = tr.span("spark.sql")(spark.sql(query))
        val rows = tr.span("spark.collect")(df.collect())
        val sorted = rows.map(r => (r.getLong(0), r.getDouble(1))).sortBy(_._1)
        Executed(Scores(sorted.map(_._1), sorted.map(_._2)), df.queryExecution, None)
      }, () => oracle._1, () => oracle._2, 1e-9, 1e-9, Some(c.preds), reset)
    }

    /** Planning and codegen warm up more slowly than the scans; 300 ops take
      * about 16 s on a 4-core machine.
      */
    val warmupOps = 300

    /** Queries of another stream: each window gives new generated code, so
      * warm-up keeps the code compiler busy as the measured loop does. They
      * share one registry; the measured ops empty it first.
      */
    def warmup(): Seq[Op] = cohorts(seed ^ 0x5eed).take(warmupOps).map { case (c, lo) => op(c, lo) }.toSeq

    def stream: Iterator[Op] = cohorts(seed).map { case (c, lo) => op(c, lo, () => isolate()) }

    /** One query of each pool kind, the Fig. 1 cohort first, all through one
      * registry that only the first query empties.
      */
    override def probe(): Seq[Op] = {
      val r = new scala.util.Random(seed ^ 0x9b0be)
      BlockMix.map(_._1).zipWithIndex.map { case (k, i) =>
        op(cohort(k, r), r.nextInt(Rows - Window), if (i == 0) () => isolate() else () => ())
      }
    }
  }
}

// ---- nn_pipeline --------------------------------------------------------------

/** The IR path with NN translation: static analysis of the SQL, the
  * CrossOptimizer with `nnTranslate`, lowering to a DataFrame that runs the
  * translated graph through the OnnxLite runtime in batches, then a sum. The
  * MLP pipeline has a scaler, so it is neither pruned nor inlined; Catalyst's
  * Raven rules see no PREDICT.
  */
object NnPipeline extends Workload {
  val name = "nn_pipeline"
  val Rows = 1000000
  val AgeSpan = 30
  /** The float32 graph against the float64 pipeline: T6's tolerance on a sum. */
  val NnRelTol = 1e-4
  val NnAbsTol = 1e-3

  def setup(spark0: SparkSession, seed: Long): Instance = new Instance {
    val spark: SparkSession = spark0
    val dataSeed: Long = Workload.dataSeed(seed)
    private val table = Workload.cache(HospitalData.joinedDf(spark, Rows, dataSeed), "hospital")
    val base: ModelPipeline = {
      val (x, y) = Workload.trainingSet()
      val scaler = StandardScaler.fit(x)
      val mlp = MlpModel.train(x.map(scaler.transform), y.map(v => if (v > 7) 1.0 else 0.0),
        hidden = Seq(32, 16), epochs = 2)
      ModelPipeline("hospital_mlp", HospitalData.pipeline, Some(scaler), mlp)
    }
    Raven.deploy(base)
    private val catalog = new SchemaCatalog()
      .register(TableDef("hospital", table.columns.toSeq, primaryKey = Some("patient_id")))
    private var ages: Array[Int] = Array.empty
    private var preds: Array[Double] = Array.empty

    def prepareOracle(): Unit = {
      ages = Array.tabulate(Rows)(i => HospitalData.joinedRow(i.toLong, dataSeed).age)
      preds = Workload.parallelFill(Rows)(i =>
        base.predictRaw(HospitalData.rawValues(HospitalData.joinedRow(i.toLong, dataSeed))))
    }

    private def op(lo: Int): Op = {
      val hi = lo + AgeSpan
      val sql = s"SELECT patient_id, PREDICT(${base.id}) AS score FROM hospital WHERE age >= $lo AND age < $hi"
      lazy val oracle: CountSum = {
        var n = 0L
        var s = 0.0
        var i = 0
        while (i < Rows) { if (ages(i) >= lo && ages(i) < hi) { n += 1; s += preds(i) }; i += 1 }
        CountSum(n, s)
      }
      Op("age_window", tr => {
        val analysis = tr.span("core.analysis.analyzeSql")(StaticAnalyzer.analyzeSql(sql, catalog, ModelRegistry.get))
        val optimized = tr.span("core.opt.optimize")(
          CrossOptimizer.optimize(analysis.ir, catalog, OptimizerConfig(nnTranslate = true)))
        val df = tr.span("core.codegen.toDataFrame")(
          RuntimeCodeGenerator.toDataFrame(optimized, Map("hospital" -> table)))
        val agg = df.agg(count(lit(1)), sum(col("score")))
        val row = tr.span("spark.collect")(agg.collect().head)
        Executed(CountSum(row.getLong(0), row.getDouble(1)), agg.queryExecution, Some((analysis.ir, optimized)))
      }, () => oracle, () => oracle.count, NnRelTol, NnAbsTol, None)
    }

    /** The batch scoring path keeps getting faster for long: after a 4 s
      * warm-up on a 4-core machine the first loop ops ran up to 30% slower
      * than the rest. 16 ops take about 10 s there.
      */
    val warmupOps = 16
    def warmup(): Seq[Op] = Seq(op(30), op(40))

    def stream: Iterator[Op] = {
      val r = new scala.util.Random(seed)
      Iterator.continually(op(18 + r.nextInt(72 - AgeSpan)))
    }
  }
}
