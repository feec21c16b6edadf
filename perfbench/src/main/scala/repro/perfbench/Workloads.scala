package repro.perfbench

import repro.bench.Harness
import repro.core.RRGuidance
import repro.graph.{GraphGen, PropertyGraph}

/** One RRG the workload's SLFE runs read: over the directed graph from the
  * bench root, or over the symmetrized graph from its smallest id — the two
  * guidances `Harness.prepare` builds.
  */
sealed abstract class Guide(val name: String) {
  def graph(p: Harness.Prepared): PropertyGraph
  def roots(p: Harness.Prepared): Set[Long]
  /** The guidance `Harness.prepare` built. */
  def rrgOf(p: Harness.Prepared): RRGuidance
  def generate(p: Harness.Prepared): RRGuidance = RRGuidance.generate(graph(p), roots(p))
}
case object DirGuide extends Guide("dir") {
  def graph(p: Harness.Prepared): PropertyGraph = p.g
  def roots(p: Harness.Prepared): Set[Long] = Set(p.root)
  def rrgOf(p: Harness.Prepared): RRGuidance = p.rrgDir
}
case object SymGuide extends Guide("sym") {
  def graph(p: Harness.Prepared): PropertyGraph = p.sym
  def roots(p: Harness.Prepared): Set[Long] = Set(p.sym.vertexIds.min)
  def rrgOf(p: Harness.Prepared): RRGuidance = p.rrgSym
}

/** A named workload: every app in `apps` on every system, over one Table 4
  * stand-in. `guides` are the RRGs its SLFE runs read.
  */
final case class Workload(name: String, graph: String, apps: Seq[String], guides: Seq[Guide]) {
  def spec(seed: Option[Long]): GraphGen.GraphSpec = {
    val s = GraphGen.datasets.find(_.name == graph).get
    seed.fold(s)(n => s.copy(seed = n))
  }
  def ops: Seq[(String, String)] = for (app <- apps; sys <- Workloads.Systems) yield (sys, app)
}

object Workloads {

  val Systems: Seq[String] = Seq("SLFE", "Gemini", "PowerL", "PowerG")

  val all: Seq[Workload] = Seq(
    // Short min/max runs: Spark's per-job cost and SLFE's reactivation and
    // verification supersteps decide wall time; needs both guidances.
    Workload("startlate-minmax", "PK", Seq("SSSP", "CC"), Seq(DirGuide, SymGuide)),
    // Long dense pull runs to eps: EdgeOps and driver apply dominate, no push.
    Workload("finishearly-arith", "PK", Seq("TR"), Seq(DirGuide)),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** The graph an app runs on (CC runs on the symmetrized view). */
  def graphOf(p: Harness.Prepared, app: String): PropertyGraph = if (app == "CC") p.sym else p.g

  def isArith(app: String): Boolean = app == "PR" || app == "TR"
}
