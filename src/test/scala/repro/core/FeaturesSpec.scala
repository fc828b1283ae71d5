package repro.core

import org.scalatest.funsuite.AnyFunSuite

class FeaturesSpec extends AnyFunSuite {

  private val s = OpStats(i = 1000, b = 5000, c = 100, l = 64, p = 8,
    inHash = 0xDEADBEEFL, pm = 1.5, cl = 4, depth = 3)

  private val pSlot = Features.names.indexOf("P")
  private val perPSlots = Features.names.indices.filter(Features.names(_).endsWith("/P"))

  test("vector length matches declared names") {
    assert(Features.vector(s).length == Features.dim)
    assert(Features.names.length == Features.dim)
  }

  test("feature count is in the paper's 25-30 range (plus context features)") {
    assert(Features.dim >= 25 && Features.dim <= 35)
  }

  test("basic features land in the declared slots") {
    val v = Features.vector(s)
    assert(v(0) == 1000.0) // I
    assert(v(1) == 5000.0) // B
    assert(v(2) == 100.0)  // C
    assert(v(3) == 64.0)   // L
    assert(v(pSlot) == 8.0)
    assert(v(Features.dim - 2) == 4.0) // CL
    assert(v(Features.dim - 1) == 3.0) // D
  }

  test("per-partition features equal numerator divided by P") {
    val v = Features.vector(s)
    val nums = Seq(s.i, s.c, s.i * s.l, s.c * s.l, math.sqrt(s.i), math.sqrt(s.c), math.log1p(s.i))
    assert(perPSlots.map(Features.names(_)) ==
      Seq("I/P", "C/P", "I*L/P", "C*L/P", "sqrt(I)/P", "sqrt(C)/P", "log(I)/P"))
    perPSlots.zip(nums).foreach { case (idx, num) =>
      assert(math.abs(v(idx) - num / 8.0) < 1e-9, Features.names(idx))
    }
  }

  test("IN hash bits are binary") {
    val v = Features.vector(s)
    (6 to 9).foreach(i => assert(v(i) == 0.0 || v(i) == 1.0))
  }

  test("partition count is clamped to at least 1") {
    val v = Features.vector(s.copy(p = 0))
    assert(v(pSlot) == 1.0)
    assert(v(perPSlots.head) == s.i)
  }

  test("withPartitions changes only P") {
    val s2 = s.withPartitions(99)
    assert(s2.p == 99.0 && s2.i == s.i && s2.c == s.c)
  }

  test("derived features are consistent with basics") {
    val v = Features.vector(s)
    assert(math.abs(v(10) - math.sqrt(1000)) < 1e-9)  // sqrt(I)
    assert(math.abs(v(12) - 64.0 * 1000) < 1e-9)      // L*I
    assert(math.abs(v(18) - 1000.0 * 100) < 1e-9)     // I*C
  }
}
