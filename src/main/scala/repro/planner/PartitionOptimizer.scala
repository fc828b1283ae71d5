package repro.planner

import repro.cleo.CleoPredictor
import repro.scopesim.{Phys, PhysOp}

/** The paper's resource-aware planning extensions (Section 5.2): a
  * resource-context accumulates each stage member's (θP, θC) during
  * optimization, and the stage's partitioning operator (Exchange/Extract)
  * then sets the partition count minimizing the whole stage's cost — rather
  * than its own local cost.
  *
  * Stage membership: a partitioning operator (leaf or Exchange) starts a
  * stage; every other operator belongs to its first child's stage; a join
  * merges its two children's stages (they must stay co-partitioned),
  * implemented with a union–find over stage setters.
  */
object PartitionOptimizer {

  private def isSetter(n: Phys): Boolean = n.children.isEmpty || n.op == PhysOp.Exchange

  /** The stage decomposition of one plan, from a single post-order walk:
    * `nodes(i)` is the i-th node in post-order and `classOf(i)` its stage
    * class, numbered by first post-order appearance.
    */
  private final class Stages(root: Phys) {
    private val nodeBuf = scala.collection.mutable.ArrayBuffer.empty[Phys]
    private val setterOf = scala.collection.mutable.ArrayBuffer.empty[Int]
    private val parent = scala.collection.mutable.ArrayBuffer.empty[Int]

    private def find(x: Int): Int = {
      val p = parent(x)
      if (p == x) x else { val r = find(p); parent(x) = r; r }
    }

    /** Appends `n`'s subtree; returns the index of the setter of `n`'s stage. */
    private def walk(n: Phys): Int = {
      val childSetters = n.children.map(walk)
      val i = nodeBuf.length
      nodeBuf += n
      parent += i
      val setter = if (isSetter(n)) i else childSetters.head
      if (childSetters.length == 2) {
        val (ra, rb) = (find(childSetters(0)), find(childSetters(1)))
        if (ra != rb) parent(ra) = rb
      }
      setterOf += setter
      setter
    }
    walk(root)

    val nodes: IndexedSeq[Phys] = nodeBuf.toIndexedSeq
    private val number = scala.collection.mutable.HashMap.empty[Int, Int]
    val classOf: Array[Int] = nodes.indices.map(i => number.getOrElseUpdate(find(setterOf(i)), number.size)).toArray
    val classes: Int = number.size
  }

  /** The stage decomposition of a physical plan: groups of operators sharing
    * one partition count (a partitioning operator plus everything deriving
    * its count, with join-coupled stages merged), in order of first
    * post-order appearance, each group in post-order.
    */
  def stageGroups(root: Phys): Seq[Vector[Phys]] = {
    val st = new Stages(root)
    val groups = Array.fill(st.classes)(Vector.newBuilder[Phys])
    st.nodes.indices.foreach(i => groups(st.classOf(i)) += st.nodes(i))
    groups.map(_.result()).toSeq
  }

  /** Rewrites partition counts per stage using the predictor's learned θ. The
    * plan keeps every operator: a setter takes its class optimum, so both
    * inputs of a join stay co-partitioned at one count.
    */
  def optimize(root: Phys, predictor: CleoPredictor): Phys = {
    val st = new Stages(root)

    // Resource-context: per-class θ sums, and each class's current count
    // (the largest of its setters') for the conservative fallback.
    val thetaP = new Array[Double](st.classes)
    val thetaC = new Array[Double](st.classes)
    val current = new Array[Int](st.classes)
    st.nodes.indices.foreach { i =>
      val n = st.nodes(i)
      val k = st.classOf(i)
      val (tp, tc) = predictor.theta(n)
      thetaP(k) += tp
      thetaC(k) += tc
      if (isSetter(n)) current(k) = math.max(current(k), n.partitions)
    }

    // Partition optimization per class (Figure 8a, step 9).
    val pStar = Array.tabulate(st.classes)(k => PartitionExplorer.withinBand(thetaP(k), thetaC(k), current(k)))

    // Rebuild in the same post-order: setters adopt their class optimum,
    // everything else derives its first child's count (Figure 8a, step 8).
    var next = 0
    def rebuild(n: Phys): Phys = {
      val kids = n.children.map(rebuild)
      val p = pStar(st.classOf(next))
      next += 1
      n.copy(children = kids, partitions = if (isSetter(n)) p else kids.head.partitions)
    }
    rebuild(root)
  }
}
