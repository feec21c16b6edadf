package repro.perfbench

import repro.bench.Harness
import repro.core.{RRGuidance, RunResult}
import repro.graph.{PropertyGraph, Reference}

/** Expected outputs of a workload's operations, computed apart from the
  * engines by the sequential algorithms of `repro.graph.Reference` on the
  * collected edge lists, once per run and outside every timed region.
  */
final class Checks(p: Harness.Prepared) {

  private def collect(g: PropertyGraph): Seq[(Long, Long, Double)] = {
    val spark = g.spark
    import spark.implicits._
    g.edges.select($"src", $"dst", $"weight").as[(Long, Long, Double)].collect().toSeq
  }

  private lazy val edges = collect(p.g)
  private lazy val symEdges = collect(p.sym)

  private val expected = scala.collection.mutable.Map.empty[String, Map[Long, Double]]
  private val guidance = scala.collection.mutable.Map.empty[Guide, (Map[Long, Int], Map[Long, Int])]

  /** Fixpoint of the app's values. */
  def expectedValues(app: String): Map[Long, Double] = expected.getOrElseUpdate(app, app match {
    case "SSSP" => Reference.sssp(edges.map { case (s, d, _) => (s, d, 1.0) }, p.root)
    case "CC" => Reference.components(symEdges).map { case (v, c) => v -> c.toDouble }
    case "TR" => Reference.tunkrank(edges, Checks.TunkRankRounds)
  })

  def expectedGuidance(guide: Guide): (Map[Long, Int], Map[Long, Int]) =
    guidance.getOrElseUpdate(guide, Reference.bfsGuidance(
      if (guide == SymGuide) symEdges else edges, guide.roots(p)))

  /** Largest |engine - reference| over all vertices (infinite on a key mismatch). */
  def maxError(app: String, r: RunResult): Double = {
    val want = expectedValues(app)
    if (want.keySet != r.values.keySet) Double.PositiveInfinity
    else want.iterator.map { case (v, x) => math.abs(r.values(v) - x) }.maxOption.getOrElse(0.0)
  }

  /** None when the run's output and counts pass, else why not. */
  def check(system: String, app: String, r: RunResult): Option[String] = {
    val err = maxError(app, r)
    val tol = if (Workloads.isArith(app)) Checks.ArithTolerance else 0.0
    val numEdges = Workloads.graphOf(p, app).numEdges
    if (!(err <= tol)) Some(f"$system/$app values differ from the reference by $err%.3g (tolerance $tol)")
    else if (system == "PowerG" && r.totalComputations != 2 * numEdges * r.iterations)
      Some(s"PowerG/$app charged ${r.totalComputations}, not 2|E| per superstep (|E|=$numEdges, ${r.iterations} supersteps)")
    else if (system == "Gemini" && Workloads.isArith(app) && r.totalComputations != numEdges * r.iterations)
      Some(s"Gemini/$app charged ${r.totalComputations}, not |E| per superstep (|E|=$numEdges, ${r.iterations} supersteps)")
    else None
  }

  def checkGuidance(guide: Guide, rrg: RRGuidance): Option[String] = {
    val (level, lastIter) = expectedGuidance(guide)
    if (rrg.level != level) Some(s"RRG(${guide.name}) levels differ from the reference BFS")
    else if (rrg.lastIter != lastIter) Some(s"RRG(${guide.name}) lastIter differs from the reference BFS")
    else None
  }
}

object Checks {

  /** Power-iteration rounds of the TR reference. TR's map is a contraction
    * with factor p = 0.5 in the 1-norm, so after 100 rounds what is left is
    * below 1e-30 of the values' 1-norm: the reference sits at the fixpoint
    * to double precision.
    */
  val TunkRankRounds = 100

  /** Largest accepted |value - fixpoint| for TR runs stopped at
    * `Harness.ArithEps`. The argument is in the benchmark README.
    */
  val ArithTolerance: Double = 1e-3
}
