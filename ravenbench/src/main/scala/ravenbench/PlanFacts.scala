package ravenbench

import org.apache.spark.sql.catalyst.expressions.{Expression, If, LessThan, Literal}
import org.apache.spark.sql.catalyst.plans.logical.{Join, LogicalPlan}
import org.apache.spark.sql.execution.{MapPartitionsExec, SparkPlan}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.types.DoubleType
import repro.ml.{DecisionTreeModel, MlpModel, Model, RandomForestModel}
import repro.sparkext.{ModelRegistry, PredictExpression}

/** Facts read from a finished query's plans, from outside the program:
  * which execution path the model took, what the plan reads, and how many
  * rows reached the scoring operator.
  */
final case class PlanFacts(
    predictExprs: Int,
    inlined: Int,
    joins: Int,
    scanCols: Int,
    modelIds: Set[String],
    modelNodes: Int,
    modelFeatures: Int,
    rowsScored: Long,
)

object PlanFacts {

  def of(qe: QueryExecution): PlanFacts = {
    val analyzedPredicts = predicts(qe.analyzed).size
    val optPredicts = predicts(qe.optimizedPlan)
    val physical = nodes(qe.executedPlan)
    val (nodes_, feats) = optPredicts.headOption match {
      case Some(p) =>
        val mp = ModelRegistry.get(p.modelId)
        (modelSize(mp.model), mp.pipeline.numFeatures)
      case None => inlinedSize(qe.optimizedPlan)
    }
    PlanFacts(
      predictExprs = optPredicts.size,
      inlined = math.max(0, analyzedPredicts - optPredicts.size),
      joins = qe.optimizedPlan.collect { case j: Join => j }.size,
      scanCols = physical.collect { case s: InMemoryTableScanExec => s.attributes.size }.sum,
      modelIds = optPredicts.map(_.modelId).toSet,
      modelNodes = nodes_,
      modelFeatures = feats,
      rowsScored = rowsIntoScoring(physical),
    )
  }

  /** Tree nodes for tree models; weights for MLPs (no node notion there). */
  def modelSize(m: Model): Int = m match {
    case t: DecisionTreeModel => t.nodeCount
    case f: RandomForestModel => f.totalNodes
    case n: MlpModel          => n.layers.map(l => l.inDim * l.outDim + l.outDim).sum
    case other                => other.numFeatures
  }

  private def predicts(plan: LogicalPlan): Seq[PredictExpression] =
    plan.collect { case n => n.expressions.flatMap(_.collect { case p: PredictExpression => p }) }.flatten

  /** An inlined tree is an `If(LessThan(feature, double literal), ...)`
    * cascade; a tree with s such splits has 2s+1 nodes. Reports the largest
    * inlined model in the plan and the distinct features it compares.
    */
  private def inlinedSize(plan: LogicalPlan): (Int, Int) = {
    val exprs = plan.collect { case n => n.expressions }.flatten
    val sizes = exprs.map { e =>
      val splitFeatures = e.collect { case If(LessThan(f, Literal(_, DoubleType)), _, _) => f.canonicalized }
      (splitFeatures.size, splitFeatures.distinct.size)
    }
    sizes.filter(_._1 > 0).maxByOption(_._1).map { case (s, f) => (2 * s + 1, f) }.getOrElse((0, 0))
  }

  /** Physical nodes, looking through adaptive-execution wrappers and stages. */
  def nodes(p: SparkPlan): Seq[SparkPlan] = p match {
    case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
    case q: QueryStageExec        => q +: nodes(q.plan)
    case other                    => other +: (other.children ++ other.subqueries).flatMap(nodes)
  }

  private def scores(e: Expression): Boolean =
    e.exists {
      case _: PredictExpression                          => true
      case If(LessThan(_, Literal(_, DoubleType)), _, _) => true
      case _                                             => false
    }

  private def isScoring(p: SparkPlan): Boolean =
    p.isInstanceOf[MapPartitionsExec] || p.expressions.exists(scores)

  /** Rows entering the lowest operators that evaluate a model: for each,
    * the row count of the nearest node beneath it that counts output rows.
    * A join whose condition scores (Catalyst moves a score filter into the
    * join above it) scores its matched pairs; the joins here are one-to-one
    * FK joins, so that is the row count of its larger input.
    */
  private def rowsIntoScoring(all: Seq[SparkPlan]): Long = {
    val scoring = all.filter(isScoring)
    val lowest = scoring.filterNot(s => scoring.exists(o => (o ne s) && descends(s, o)))
    lowest.map(s => if (s.children.size > 1) s.children.map(rowsOut).max else s.children.map(rowsOut).sum).sum
  }

  private def descends(from: SparkPlan, target: SparkPlan): Boolean =
    nodes(from).exists(n => (n ne from) && (n eq target))

  private def rowsOut(p: SparkPlan): Long = p.metrics.get("numOutputRows") match {
    case Some(m) => m.value
    case None => p match {
      case a: AdaptiveSparkPlanExec => rowsOut(a.executedPlan)
      case q: QueryStageExec        => rowsOut(q.plan)
      case other                    => other.children.map(rowsOut).sum
    }
  }
}
