package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.apps.Apps
import repro.bench.Harness
import repro.core.{EdgeOps, RRGuidance, RunResult, VertexProgram}
import repro.graph.GraphGen

/** Benchmark entry point:
  * `--workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <dir>]`.
  *
  * One run: Spark session, a warm-up on a small graph, `SetupReps` timed
  * graph preparations, then whole passes over the workload's operations
  * until `--seconds` of passes have run. The last line of stdout is one JSON
  * object with `correct`, `attempted`, `failed` and `metrics`: the
  * end-to-end metrics, or with `--trace 1` the per-layer ones.
  */
object Main {

  final case class Options(workload: Workload, seed: Option[Long], seconds: Double,
                           trace: Boolean, out: Path)

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    System.err.println("usage: --workload <" + Workloads.all.map(_.name).mkString("|") +
      "> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <dir>]")
    sys.exit(2)
  }

  def parse(args: Array[String]): Options = {
    if (args.length % 2 != 0) usage("arguments come in --flag value pairs")
    val kv = args.grouped(2).map(a => a(0) -> a(1)).toMap
    kv.keySet.diff(Set("--workload", "--seed", "--seconds", "--trace", "--out")).foreach(k => usage(s"unknown flag $k"))
    def num[A](k: String, f: String => A): Option[A] =
      kv.get(k).map(v => try f(v) catch { case NonFatal(_) => usage(s"$k takes a number, got '$v'") })
    val w = kv.get("--workload").map(n => Workloads.byName(n).getOrElse(usage(s"unknown workload '$n'")))
      .getOrElse(usage("--workload is required"))
    val seconds = num("--seconds", _.toDouble).getOrElse(10.0)
    if (!(seconds > 0)) usage("--seconds must be positive")
    val trace = kv.getOrElse("--trace", "0") match {
      case "0" => false
      case "1" => true
      case t => usage(s"--trace takes 0 or 1, got '$t'")
    }
    Options(w, num("--seed", _.toLong), seconds, trace, Paths.get(kv.getOrElse("--out", ".bench_build/perfbench")))
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val localDir = o.out.resolve("spark-local")
    Files.createDirectories(localDir)
    val t0 = System.nanoTime()
    // Task threads on half the cores: the driver loop, the JIT and the
    // collector keep the other half. One shuffle partition per task thread: a
    // superstep shuffles at most one row per vertex. On 4 cores both made
    // supersteps faster and steadier than the spark-submit jobs' settings (one
    // thread per core, 8 partitions). Broadcast joins stay off, as there.
    val threads = math.max(1, Runtime.getRuntime.availableProcessors / 2)
    val spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName("slfe-perfbench")
      .config("spark.sql.shuffle.partitions", threads.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir.toAbsolutePath.toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val result = try {
      val runner = new Runner(spark, o)
      runner.log(f"spark session ${(System.nanoTime() - t0) / 1e9}%.2f s")
      runner.run()
    } finally spark.stop()
    println(result)
  }
}

/** Thrown when an operation's output fails its independent check. */
final class CheckFailed(msg: String) extends Exception(msg)

final class Runner(spark: SparkSession, o: Main.Options) {

  import Runner._

  private val w = o.workload
  private val spec = w.spec(o.seed)
  private val tracer = new Tracer(o.trace)

  private var attempted = 0L
  private var failed = 0L
  private var wrong = 0L

  def log(msg: String): Unit = System.err.println(s"[perfbench ${w.name}] $msg")

  /** One operation: counted as attempted; an exception or a failed check
    * counts it as failed without ending the run.
    */
  private def guarded[A](what: String)(body: => A): Option[A] = {
    attempted += 1
    try Some(body)
    catch {
      case e: CheckFailed => failed += 1; wrong += 1; log(s"WRONG $what: ${e.getMessage}"); None
      case NonFatal(e) => failed += 1; log(s"FAILED $what: $e"); None
    }
  }

  private def verify(problem: Option[String]): Unit = problem.foreach(m => throw new CheckFailed(m))

  private def phase[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally log(f"$name ${(System.nanoTime() - t0) / 1e9}%.2f s")
  }

  def run(): String = {
    val (p, setup) = phase("set-up")(setUp())
    val checks = new Checks(p)
    phase("checks of set-up") {
      w.apps.foreach(checks.expectedValues)
      for (rep <- setup; (guide, rrg) <- rep.guides; problem <- checks.checkGuidance(guide, rrg)) {
        wrong += 1
        log(s"WRONG $problem")
      }
    }
    phase("warm-up")(warmUp(p))
    val passes = phase("passes")(measure(p, checks))
    log(s"input ${spec.name} seed ${spec.seed}: |V| ${p.g.numVertices}, |E| ${p.g.numEdges}, " +
      s"symmetrized |E| ${p.sym.numEdges}, RRG levels ${w.guides.map(g => s"${g.name} ${g.rrgOf(p).maxLevel}").mkString(", ")}")
    log(f"${passes.size} passes, ${attempted - failed}/$attempted operations ok, " +
      f"driver peak RSS ${peakRssMb()}%.0f MB")
    val metrics =
      if (o.trace) traced(p, setup, passes)
      else endToEnd(setup, passes)
    tracer.write(o.out.resolve(s"trace-${w.name}-seed${o.seed.getOrElse("default")}.jsonl"))
    json(metrics)
  }

  /** Prepares the workload's graph `SetupReps` times through `Harness.prepare`.
    * Lazy metadata it leaves (`numEdges`, `outNbrs`) is paid by the first
    * run that reads it, as in any caller of `prepare`. The first
    * repetition also warms the JVM and Spark's code generation: the RRG
    * expansions inside `prepare` run the same join-and-aggregate plan as a
    * superstep. A sample's set-up time is the wall time minus the RRG time
    * `prepare` spent, as the guidances report it; its RRG time is that of
    * the guidances the workload's SLFE runs read.
    */
  private def setUp(): (Harness.Prepared, Seq[Sample]) = {
    var p: Harness.Prepared = null
    val samples = (1 to SetupReps).map { _ =>
      if (p != null) { p.g.unpersist(); p.sym.unpersist() }
      val t0 = System.nanoTime()
      p = tracer.span("harness", "Harness.prepare")(Harness.prepare(spark, spec))
      val wall = System.nanoTime() - t0
      log(f"Harness.prepare ${wall / 1e9}%.2f s")
      val guides = w.guides.map(g => g -> g.rrgOf(p))
      Sample(wall, wall - (p.rrgDir.wallMillis + p.rrgSym.wallMillis) * 1000000L,
        guides.map(_._2.wallMillis).sum * 1000000L, guides)
    }
    (p, samples)
  }

  /** Runs each app's aggregation in the pull and the push shape a few
    * times, so that Spark's code generation has compiled the plans of the
    * measured supersteps before the first one is timed. (A full warm-up pass
    * would double a run's length; the set-up repetitions have already warmed
    * the JVM and the join-and-aggregate path the RRG expansions share.)
    */
  private def warmUp(p: Harness.Prepared): Unit = tracer.span("bench", "warm-up") {
    for (app <- w.apps) {
      val g = Workloads.graphOf(p, app)
      val prog = program(app, p.root)
      val srcs = EdgeOps.initState(g, prog, None).toSeq.map(v => (v.id, v.value, v.outDeg))
      for (_ <- 1 to WarmUpReps) {
        EdgeOps.aggregate(g, prog, srcs, Some(srcs.map(_._1)))
        EdgeOps.aggregate(g, prog, srcs, None)
      }
    }
  }

  /** Whole passes until the elapsed time is closest to `--seconds`. */
  private def measure(p: Harness.Prepared, checks: Checks): Seq[Pass] = {
    val passes = ArrayBuffer.empty[Pass]
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    def meanPass = elapsed / passes.size
    while (passes.isEmpty || elapsed + meanPass / 2 < o.seconds) {
      passes += pass(p, checks)
      val last = passes.last
      log(f"pass ${passes.size}: ${last.wallNs / 1e9}%.2f s; " +
        Workloads.Systems.map(s => f"$s ${last.wallOf(s) / 1e9}%.2f s").mkString(", ") +
        last.runs.filter(op => op.maxErr > 0).map(op => f"; ${op.system}/${op.app} max |error| ${op.maxErr}%.2e").mkString)
    }
    passes.toSeq
  }

  private def pass(p: Harness.Prepared, checks: Checks): Pass = {
    val t0 = System.nanoTime()
    val runs = tracer.span("bench", "pass") {
      w.ops.flatMap { case (system, app) =>
        guarded(s"$system/$app") {
          val s0 = System.nanoTime()
          val r = tracer.spanWith(layerOf(system), s"$system/$app")(Harness.run(p, system, app))(stepsJson)
          val ns = System.nanoTime() - s0
          verify(checks.check(system, app, r))
          OpRun(system, app, ns, r, checks.maxError(app, r), Workloads.graphOf(p, app).numVertices)
        }
      }
    }
    Pass(System.nanoTime() - t0, runs)
  }

  /** Tracing overhead of one pass: the pass's spans, per-superstep records
    * included, replayed around its finished results with tracing on, minus
    * the same replay with tracing off. Replaying leaves out the engines'
    * run-to-run spread, which is far larger than the overhead itself.
    */
  private def tracingOverheadNs(pass: Pass): Double = {
    def replay(t: Tracer): Long = {
      val t0 = System.nanoTime()
      t.span("bench", "pass") {
        pass.runs.foreach(op => t.spanWith(layerOf(op.system), s"${op.system}/${op.app}")(op.r)(stepsJson))
      }
      System.nanoTime() - t0
    }
    median((1 to ProbeReps).map(_ => (replay(new Tracer(true)) - replay(new Tracer(false))).toDouble))
  }

  private def endToEnd(setup: Seq[Sample], passes: Seq[Pass]): Seq[Metric] = {
    val perSystem = Workloads.Systems.flatMap { s =>
      val key = s.toLowerCase
      Seq(Metric(s"${key}_s", median(passes.map(_.wallOf(s))) / 1e9, "s"),
        Metric(s"${key}_edge_comps", median(passes.map(_.of(s).map(_.r.totalComputations).sum.toDouble)), "count"))
    }
    Seq(Metric("setup_s", median(setup.map(_.setupNs.toDouble)) / 1e9, "s"),
      Metric("rrg_s", median(setup.map(_.rrgNs.toDouble)) / 1e9, "s")) ++ perSystem
  }

  private def traced(p: Harness.Prepared, setup: Seq[Sample], passes: Seq[Pass]): Seq[Metric] = {
    // Graph layer: the calls Harness.prepare makes, made one by one.
    for (_ <- 1 to ProbeReps) {
      val g = tracer.span("graph", "GraphGen.build")(GraphGen.build(spark, spec))
      val sym = tracer.span("graph", "symmetrize")(g.symmetrize.cached())
      tracer.span("graph", "vertex_meta") { g.vertexIds; g.numEdges; g.outDeg; g.inDeg; g.maxOutDegVertex }
      tracer.span("graph", "outNbrs")(g.outNbrs)
      g.unpersist(); sym.unpersist()
    }
    // EdgeOps: one aggregation from every source to every destination, and
    // one from the root alone (the fixed cost of one Spark job).
    val prog = program(w.apps.head, p.root)
    val g = Workloads.graphOf(p, w.apps.head)
    val state = EdgeOps.initState(g, prog, None)
    val all = state.iterator.map(v => (v.id, v.value, v.outDeg)).toSeq
    val one = all.filter(_._1 == p.root)
    for (_ <- 1 to ProbeReps) {
      tracer.span("edgeops", "dense")(EdgeOps.aggregate(g, prog, all, None))
      tracer.span("edgeops", "sparse")(EdgeOps.aggregate(g, prog, one, None))
    }
    // RRG: the workload's guidances, generated again one after the other.
    val rrgs = (1 to ProbeReps).map { _ =>
      tracer.span("rrg", "generate")(w.guides.map(_.generate(p)))
    }.last
    val ms = (name: String) => median(tracer.durationsNs(name).map(_.toDouble)) / 1e6
    val rrgMs = ms("generate")
    val rrgLevels = rrgs.map(_.maxLevel + 1).sum
    val layers = Seq(
      Metric("graph.build_ms", ms("GraphGen.build"), "ms"),
      Metric("graph.symmetrize_ms", ms("symmetrize"), "ms"),
      Metric("graph.vertex_meta_ms", ms("vertex_meta"), "ms"),
      Metric("graph.outnbrs_ms", ms("outNbrs"), "ms"),
      Metric("graph.vertices", p.g.numVertices.toDouble, "count"),
      Metric("graph.edges", p.g.numEdges.toDouble, "count"),
      Metric("rrg.generate_ms", rrgMs, "ms"),
      Metric("rrg.levels", rrgLevels.toDouble, "count"),
      Metric("rrg.ms_per_level", rrgMs / math.max(rrgLevels, 1), "ms"),
      Metric("rrg.edge_comps", rrgs.map(_.edgeComputations).sum.toDouble, "count"),
      Metric("edgeops.dense_ms", ms("dense"), "ms"),
      Metric("edgeops.sparse_ms", ms("sparse"), "ms"),
      Metric("edgeops.dense_edges_per_s", g.numEdges / (ms("dense") / 1e3), "1/s"),
      Metric("harness.prepare_ms", median(setup.map(_.wallNs.toDouble)) / 1e6, "ms"),
      Metric("trace.overhead_ms", median(passes.map(tracingOverheadNs)) / 1e6, "ms"),
    )
    val systems = Workloads.Systems.flatMap { s =>
      val key = s.toLowerCase
      def perPass(f: OpRun => Double): Double = median(passes.map(_.of(s).map(f).sum))
      def steps(mode: String => Boolean): Double = perPass(_.r.stats.count(st => mode(st.mode)).toDouble)
      val vertexComps = perPass(_.r.totalVertexComputations.toDouble)
      val updates = perPass(_.r.totalUpdates.toDouble)
      Seq(
        Metric(s"$key.supersteps", perPass(_.r.iterations.toDouble), "count"),
        Metric(s"$key.pull_steps", steps(m => m == "pull" || m.startsWith("gas")), "count"),
        Metric(s"$key.push_steps", steps(_ == "push"), "count"),
        Metric(s"$key.superstep_ms_p50",
          median(passes.flatMap(_.of(s).flatMap(_.r.stats.map(_.millis.toDouble)))), "ms"),
        Metric(s"$key.driver_ms", perPass(op => op.wallNs / 1e6 - op.r.stats.map(_.millis).sum), "ms"),
        Metric(s"$key.vertex_comps", vertexComps, "count"),
        Metric(s"$key.updates", updates, "count"),
        Metric(s"$key.useful_ratio", if (vertexComps > 0) updates / vertexComps else 0.0, "ratio"),
      )
    }
    val slfe = Seq(
      Metric("slfe.reactivate_steps", median(passes.map(_.of("SLFE").map(op => reactivations(op.r)).sum.toDouble)), "count"),
      Metric("slfe.verify_steps", median(passes.map(_.of("SLFE").map(op => verifications(op.r)).sum.toDouble)), "count"),
      Metric("slfe.frozen_vertex_steps", median(passes.map(_.of("SLFE").map { op =>
        op.r.stats.map(st => op.numVertices - st.computedVertices).sum.toDouble
      }.sum)), "count"),
      Metric("slfe.arith_max_err", passes.flatMap(_.of("SLFE").map(_.maxErr)).maxOption.getOrElse(0.0), "1"),
    )
    layers ++ systems ++ slfe
  }

  private def json(metrics: Seq[Metric]): String = {
    val body = metrics.map { m =>
      val v = if (m.value.isNaN || m.value.isInfinite) 0.0 else m.value
      s""""${m.name}": {"value": $v, "unit": "${m.unit}"}"""
    }.mkString(", ")
    s"""{"correct": ${wrong == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }
}

object Runner {

  val SetupReps = 3
  val ProbeReps = 3
  val WarmUpReps = 2

  final case class Metric(name: String, value: Double, unit: String)
  final case class Sample(wallNs: Long, setupNs: Long, rrgNs: Long, guides: Seq[(Guide, RRGuidance)])
  final case class OpRun(system: String, app: String, wallNs: Long, r: RunResult,
                         maxErr: Double, numVertices: Long)
  final case class Pass(wallNs: Long, runs: Seq[OpRun]) {
    def of(system: String): Seq[OpRun] = runs.filter(_.system == system)
    def wallOf(system: String): Double = of(system).map(_.wallNs).sum.toDouble
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  def layerOf(system: String): String =
    if (system.startsWith("Power")) "baseline.GasEngine" else "core.SlfeEngine"

  def program(app: String, root: Long): VertexProgram = app match {
    case "SSSP" => Apps.sssp(root, unitWeight = true)
    case "CC" => Apps.cc
    case "TR" => Apps.tunkrank(eps = Harness.ArithEps)
  }

  /** Reactivation: the first push after a pull (Alg. 3 lines 2-4). */
  def reactivations(r: RunResult): Int =
    r.stats.sliding(2).count(s => s.size == 2 && s(0).mode == "pull" && s(1).mode == "push")

  /** Verification: any superstep that follows a zero-update superstep. */
  def verifications(r: RunResult): Int =
    r.stats.sliding(2).count(s => s.size == 2 && s(0).updates == 0)

  /** The run's per-superstep records, for the trace file. */
  def stepsJson(r: RunResult): String = r.stats.map { s =>
    s"""{"iter":${s.iter},"mode":"${s.mode}","computed":${s.computedVertices},""" +
      s""""edge_comps":${s.edgeComputations},"updates":${s.updates},"ms":${s.millis}}"""
  }.mkString("[", ",", "]")

  /** High-water resident set of this JVM, from /proc/self/status. */
  def peakRssMb(): Double =
    try {
      val src = scala.io.Source.fromFile("/proc/self/status")
      try src.getLines().collectFirst { case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024 }.getOrElse(0.0)
      finally src.close()
    } catch { case NonFatal(_) => 0.0 }
}
