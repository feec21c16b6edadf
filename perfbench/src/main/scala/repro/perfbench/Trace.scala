package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer

/** In-memory spans recorded by the benchmark around its calls into each
  * layer; nothing inside the program is instrumented. A span's parent is
  * the span open when it started. Spans are written out as JSON lines once
  * the run has ended. With `enabled = false` a span is just its body.
  */
final class Tracer(enabled: Boolean) {

  import Tracer.Span

  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  private val origin = System.nanoTime()

  def span[A](layer: String, name: String)(body: => A): A = spanWith(layer, name)(body)(_ => "")

  /** Like [[span]], with a JSON fragment derived from the result (e.g. the
    * run's per-superstep records).
    */
  def spanWith[A](layer: String, name: String)(body: => A)(detail: A => String): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      var d = ""
      try { val r = body; d = detail(r); r }
      finally {
        open = open.tail
        spans += Span(id, parent, layer, name, t0 - origin, System.nanoTime() - origin, d)
      }
    }

  /** Durations of every recorded span with this name. */
  def durationsNs(name: String): Seq[Long] = spans.iterator.filter(_.name == name).map(s => s.endNs - s.startNs).toSeq

  def write(path: Path): Unit = if (enabled) {
    val lines = spans.sortBy(_.id).map { s =>
      val extra = if (s.detail.isEmpty) "" else s""","detail":${s.detail}"""
      s"""{"id":${s.id},"parent":${s.parent},"layer":"${s.layer}","name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}$extra}"""
    }
    Files.createDirectories(path.getParent)
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, layer: String, name: String,
                        startNs: Long, endNs: Long, detail: String)
}
