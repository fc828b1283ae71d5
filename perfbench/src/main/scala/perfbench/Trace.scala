package perfbench

import scala.collection.mutable.ArrayBuffer

/** One recorded span: a call into a layer, timed from the benchmark's side. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder. Disabled, `span` only runs its body, so the
  * untraced run pays nothing; enabled, it records name, start, end and the
  * enclosing span, and the spans are written out when the benchmark ends.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(0)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Durations (ms) of every span with this name. */
  def durations(name: String): Seq[Double] = spans.iterator.filter(_.name == name).map(_.ms).toSeq

  def totalMs(name: String): Double = durations(name).sum

  def writeTo(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val lines = spans.sortBy(_.startNs).map { s =>
      Json.obj(Seq("id" -> Json.num(s.id), "parent" -> Json.num(s.parent), "name" -> Json.str(s.name),
        "start_ns" -> Json.num(s.startNs), "end_ns" -> Json.num(s.endNs)))
    }
    java.nio.file.Files.write(path, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
  }
}

object Stats {
  /** Nearest-rank quantile on a copy of `xs` (0 for an empty sample). */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      s(math.min(s.length - 1, math.max(0, math.ceil(q * s.length).toInt - 1)))
    }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted; val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  def timeMs[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }
}

/** Minimal JSON rendering for the result line and the span dump. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""
  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null" else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else java.lang.Double.toString(x)
  def num(x: Long): String = x.toString
  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => str(k) + ":" + v }.mkString("{", ",", "}")
  def arr(xs: Seq[String]): String = xs.mkString("[", ",", "]")
}
