package repro.planner

import org.scalatest.funsuite.AnyFunSuite

class PartitionExplorerSpec extends AnyFunSuite {
  import PartitionExplorer._
  import repro.scopesim.DefaultPartitioner.MaxPartitions

  private val stats = repro.core.OpStats(1e6, 1e6, 1e5, 100, 1, 0L, 1.0, 2, 2)

  /** A model trained on cost(P) = 1e-4·I/P + 0.01·P over the given statistics. */
  private def stageOp(s: repro.core.OpStats): StageOp = {
    val ps = Seq(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3000)
    val xs = ps.map(p => repro.core.Features.vector(s.withPartitions(p)))
    val ys = ps.map(p => math.log1p(1e-4 * (s.i / p) + 0.01 * p))
    val net = repro.ml.ElasticNet(l1 = 1e-6, l2 = 1e-6).fit(xs.toArray, ys.toArray)
    StageOp(repro.cleo.CostModel(net, ys.min, ys.max), s)
  }

  test("analytical optimum matches sqrt(θP/θC) when both positive") {
    assert(optimum(400.0, 1.0, 1, MaxPartitions) == 20)
  }

  test("analytical optimum sums thetas across stage members") {
    val at64 = stats.withPartitions(64)
    val ops = Seq(stageOp(at64), stageOp(at64.copy(i = 4e6, c = 2e5)))
    val thetas = ops.map(o => o.model.theta(o.stats))
    assert(thetas.forall { case (tp, tc) => tp > 0 && tc > 0 })
    val (tp, tc) = (thetas.map(_._1).sum, thetas.map(_._2).sum)
    assert(analytical(ops) == optimum(tp, tc, 8, 512))
    assert(analytical(ops) != analytical(ops.take(1)), "the second member must move the optimum")
  }

  test("negative θP with positive θC pins to minimum partitions") {
    assert(optimum(-10.0, 2.0, 1, MaxPartitions) == 1)
  }

  test("positive θP with negative θC pins to maximum partitions") {
    assert(optimum(10.0, -0.001, 1, MaxPartitions) == MaxPartitions)
  }

  test("both negative picks the cheaper boundary") {
    // cost(P) = -100/P - 0.001P : cost(1) = -100.001, cost(3000) = -3.03 -> P=1
    assert(optimum(-100.0, -0.001, 1, MaxPartitions) == 1)
    // cost(P) = -1/P - 1.0P : cost(3000) = -3000 -> P=3000
    assert(optimum(-1.0, -1.0, 1, MaxPartitions) == MaxPartitions)
  }

  test("analytical optimum is clamped to [1, pMax]") {
    assert(optimum(1e12, 1e-9, 1, 100) == 100)
    assert(optimum(0.0001, 1e9, 1, MaxPartitions) == 1)
  }

  test("inverted bounds are rejected, not answered with a count outside them") {
    intercept[IllegalArgumentException](optimum(400.0, 1.0, 64, 8))
    intercept[IllegalArgumentException](optimum(-10.0, 2.0, 64, 8))
    assert(optimum(400.0, 1.0, 8, 8) == 8)
  }

  test("the ±8× band clamps the optimum and keeps the count without an interior optimum") {
    assert(withinBand(400.0, 1.0, 16) == 20)
    assert(withinBand(1e12, 1e-9, 16) == 128)
    assert(withinBand(1e12, 1e-9, 1000) == MaxPartitions)
    assert(withinBand(0.0001, 1e9, 16) == 2)
    assert(withinBand(-10.0, 2.0, 16) == 16)
    assert(withinBand(10.0, 0.0, 16) == 16)
  }

  test("geometric sequence starts 1,2 and grows by ~1/s") {
    val g = geometricCandidates(s = 1.0) // doubles each step
    assert(g.take(4) == Seq(1, 2, 4, 8))
    assert(g.last == MaxPartitions)
  }

  test("geometricCandidatesOfSize yields roughly the requested count") {
    for (k <- Seq(4, 8, 16, 32)) {
      val g = geometricCandidatesOfSize(k)
      assert(math.abs(g.size - k) <= k / 2 + 2, s"k=$k size=${g.size}")
    }
  }

  test("uniform candidates span the full range") {
    val u = uniformCandidates(10)
    assert(u.head <= 300 && u.last == MaxPartitions)
    assert(u.size == 10)
  }

  test("random candidates stay in range and are deterministic per seed") {
    val a = randomCandidates(20, seed = 5)
    val b = randomCandidates(20, seed = 5)
    assert(a == b)
    assert(a.forall(p => p >= 1 && p <= MaxPartitions))
  }

  test("bestOf picks the candidate minimizing stage cost on a synthetic model") {
    val ops = Seq(stageOp(stats))
    val exh = exhaustive(ops)
    val best = bestOf(ops, geometricCandidatesOfSize(20))
    val cExh = stageCost(ops, exh)
    val cBest = stageCost(ops, best)
    assert(cBest <= cExh * 1.5, s"geometric pick $best (cost $cBest) vs optimum $exh (cost $cExh)")
  }
}
