package ravenbench

object Stats {

  /** Linear-interpolated quantile, q in [0, 1]; NaN when empty. */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted.toArray
      val pos = q * (s.length - 1)
      val lo = math.floor(pos).toInt
      val hi = math.min(lo + 1, s.length - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Length of the union of half-open intervals `(start, end)`. */
  def unionLength(ivs: Seq[(Long, Long)]): Long = {
    var total = 0L
    var end = Long.MinValue
    ivs.sortBy(_._1).foreach { case (s, e) =>
      val from = math.max(s, end)
      if (e > from) total += e - from
      end = math.max(end, e)
    }
    total
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Median wall time of `reps` runs of `body`, in nanoseconds, after one warm-up run. */
  def medianNs(reps: Int)(body: => Any): Double = {
    body
    median(Seq.fill(reps) {
      val t0 = System.nanoTime()
      body
      (System.nanoTime() - t0).toDouble
    })
  }
}
