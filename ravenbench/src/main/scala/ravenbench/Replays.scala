package ravenbench

import repro.linalg.Tensor
import repro.ml.{ColPredicate, ModelPipeline, NNTranslator}
import repro.onnx.{GraphDef, Ops, Session}

/** Single-thread replays of one layer's public functions on a workload's
  * own rows and model, timed from outside. They isolate a layer's cost per
  * row, which the end-to-end run mixes with Spark's.
  */
object Replays {

  val Reps = 5
  val OnnxBatch = 4096

  final case class MlCosts(featurizeNs: Double, modelNs: Double, predictRawNs: Double)

  def ml(mp: ModelPipeline, raw: Array[IndexedSeq[Any]]): MlCosts = {
    val n = raw.length.toDouble
    var sink = 0.0
    val featurizeNs = Stats.medianNs(Reps) { raw.foreach(r => sink += mp.pipeline.transform(r)(0)) }
    val feats = raw.map { r =>
      val f = mp.pipeline.transform(r)
      mp.scaler.map(_.transform(f)).getOrElse(f)
    }
    val modelNs = Stats.medianNs(Reps) { sink += mp.model.predictBatch(feats)(0) }
    val predictRawNs = Stats.medianNs(Reps) { raw.foreach(r => sink += mp.predictRaw(r)) }
    require(!sink.isNaN || sink.isNaN) // keeps `sink` live
    MlCosts(featurizeNs / n, modelNs / n, predictRawNs / n)
  }

  /** Milliseconds of `optimizeFor` (pruning + projection) per predicate set. */
  def deriveMs(mp: ModelPipeline, predicateSets: Seq[Seq[ColPredicate]]): Seq[Double] =
    predicateSets.map { preds =>
      val t0 = System.nanoTime()
      mp.optimizeFor(preds)
      (System.nanoTime() - t0) / 1e6
    }

  final case class OnnxCosts(buildMs: Double, nsPerRow: Double, flopsPerRow: Double, bytesPerRow: Double)

  /** The OnnxLite session for the pipeline's translated graph: build time,
    * run time per row at batch [[OnnxBatch]], and the kernels' operation and
    * byte counts per row, computed from the tensor shapes of one run.
    */
  def onnx(mp: ModelPipeline, raw: Array[IndexedSeq[Any]]): OnnxCosts = {
    val graph = NNTranslator.translatePipeline(mp)
    val buildMs = Stats.medianNs(Reps)(new Session(graph)) / 1e6
    val session = new Session(graph)
    val batch = Iterator.continually(raw).flatten.take(OnnxBatch).toArray
    val perRow = batch.map(r => mp.pipeline.toGraphFeeds(r))
    val feeds = mp.pipeline.inputCols.zipWithIndex.map { case (c, i) =>
      c -> new Tensor(batch.length, 1, Array.tabulate(batch.length)(r => perRow(r)(i).toFloat))
    }.toMap
    val nsPerRow = Stats.medianNs(Reps)(session.run(feeds)) / batch.length
    val (flops, bytes) = kernelCounts(session.graph, feeds)
    OnnxCosts(buildMs, nsPerRow, flops / batch.length, bytes / batch.length)
  }

  /** Floating-point operations and bytes read plus written by every kernel
    * of one run of `graph` (float32 tensors), from the shapes it produces.
    */
  def kernelCounts(graph: GraphDef, feeds: Map[String, Tensor]): (Double, Double) = {
    val env = scala.collection.mutable.Map[String, Tensor](graph.initializers.toSeq: _*)
    feeds.foreach { case (k, v) => if (graph.liveInputs.contains(k)) env(k) = v }
    var flops = 0.0
    var bytes = 0.0
    graph.nodes.foreach { n =>
      val in = n.inputs.map(env)
      val out = Ops.execute(n, in)
      env(n.output) = out
      flops += (n.op match {
        case "MatMul" => 2.0 * in(0).rows * in(0).cols * in(1).cols
        case "Sum"    => (in.size - 1).toDouble * out.size
        case "Concat" | "OneHot" | "Identity" => 0.0
        case "ArgMax" => in(0).size.toDouble
        case _        => out.size.toDouble
      })
      bytes += 4.0 * (in.map(_.size).sum + out.size)
    }
    (flops, bytes)
  }
}
