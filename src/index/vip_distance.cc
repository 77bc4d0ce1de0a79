#include <algorithm>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/index/minplus_kernels.h"
#include "src/index/vip_tree.h"

namespace ifls {
namespace {

/// Appends the (up to two) distinct leaves containing door `d`.
void LeavesOfDoor(const VipTree& tree, const Door& d, NodeId out[2],
                  int* count) {
  out[0] = tree.LeafOf(d.partition_a);
  const NodeId other = tree.LeafOf(d.partition_b);
  *count = 1;
  if (other != out[0]) {
    out[1] = other;
    *count = 2;
  }
}

/// Walks two distinct leaves up to the children of their LCA: on return
/// `*ca` is the LCA child above `la` and `*cb` the one above `lb`.
void LcaChildren(const VipTree& tree, NodeId la, NodeId lb, NodeId* ca,
                 NodeId* cb) {
  IFLS_DCHECK(la != lb);
  NodeId a = la;
  NodeId b = lb;
  while (tree.node(a).depth > tree.node(b).depth) a = tree.node(a).parent;
  while (tree.node(b).depth > tree.node(a).depth) b = tree.node(b).parent;
  while (tree.node(a).parent != tree.node(b).parent) {
    a = tree.node(a).parent;
    b = tree.node(b).parent;
  }
  IFLS_DCHECK(a != b);
  *ca = a;
  *cb = b;
}

/// Position of `child` among `parent`'s children (fanout is small).
std::size_t ChildPosition(const VipNode& parent, NodeId child) {
  std::size_t pos = 0;
  while (parent.children[pos] != child) ++pos;
  return pos;
}

}  // namespace

std::span<const double> VipTree::AncestorAccessDistances(
    DoorId a, NodeId leaf, NodeId ancestor,
    std::vector<double>* scratch) const {
  const VipNode& leaf_node = node(leaf);
  if (ancestor != leaf && options_.build_leaf_to_ancestor) {
    // VIP mode: the row of the materialized leaf->ancestor matrix, in place.
    const int k = leaf_node.depth - node(ancestor).depth - 1;
    IFLS_DCHECK(k >= 0 &&
                static_cast<std::size_t>(k) < leaf_node.ancestor_matrices.size());
    const DoorMatrixView& m =
        leaf_node.ancestor_matrices[static_cast<std::size_t>(k)];
    const int row = m.RowIndex(a);
    IFLS_DCHECK(row >= 0);
    BumpMatrixLookups(m.num_cols());
    return {m.dist_data() + static_cast<std::size_t>(row) * m.num_cols(),
            m.num_cols()};
  }
  // Distances over AD(leaf), gathered from the leaf matrix row.
  const int row = leaf_node.matrix.RowIndex(a);
  IFLS_DCHECK(row >= 0);
  const std::size_t n = leaf_node.access_door_idx.size();
  scratch->resize(n);
  kernels::GatherCells(
      leaf_node.matrix.dist_data() +
          static_cast<std::size_t>(row) * leaf_node.matrix.num_cols(),
      leaf_node.access_door_idx.data(), n, scratch->data());
  CountKernelInvocation();
  BumpMatrixLookups(n);
  // IP mode: compose along the node chain leaf -> ... -> ancestor. At each
  // step, distances to the current node's access doors are folded through
  // the parent's matrix into distances to the parent's access doors.
  static thread_local std::vector<double> next;
  NodeId cur = leaf;
  while (cur != ancestor) {
    const NodeId parent_id = node(cur).parent;
    IFLS_CHECK(parent_id != kInvalidNode)
        << "ancestor is not on the leaf's root chain";
    const VipNode& parent = node(parent_id);
    const std::span<const std::int32_t> rows =
        parent.child_access_idx(ChildPosition(parent, cur));
    const std::span<const std::int32_t> cols = parent.access_door_idx;
    next.resize(cols.size());
    kernels::MinPlusCompose(scratch->data(), rows.data(), rows.size(),
                            cols.data(), cols.size(), parent.matrix.dist_data(),
                            parent.matrix.num_cols(), next.data());
    CountKernelInvocation();
    BumpMatrixLookups(rows.size() * cols.size());
    scratch->swap(next);
    cur = parent_id;
  }
  return *scratch;
}

double VipTree::DoorToDoor(DoorId a, DoorId b) const {
  if (a == b) return 0.0;
  // Per-orientation key, deliberately NOT normalized to (min, max): the
  // composed value for (a, b) associates its sums in the opposite order
  // from (b, a) and may differ in the last ULP, so serving one orientation
  // from the other's entry would make a warm cache visibly diverge from a
  // cold recompute. Caching each orientation separately keeps cached and
  // uncached answers bit-identical.
  return MemoizedDoorSets(DistanceMemoKind::kDoorPair, a, b,
                          std::span<const DoorId>(&a, 1),
                          std::span<const DoorId>(&b, 1));
}

// The point distances below take the min over doors(pa) of leg + a door-set
// distance. Rounding is monotone, so fl(leg + min_t x_t) == min_t fl(leg +
// x_t), and each is bit-identical to the per-pair minimum of leg +
// DoorToDoor(d1, t) (DESIGN §3.1). A door whose leg is already no better
// than the best cannot improve it, as no term is negative.

double VipTree::PointToPartition(const Point& a, PartitionId pa,
                                 PartitionId target) const {
  if (pa == target) return 0.0;
  double best = kInfDistance;
  for (DoorId d1 : venue_->partition(pa).doors) {
    const double leg = PointToDoorDistance(a, venue_->door(d1));
    if (leg >= best) continue;
    const double cand = leg + DoorToPartition(d1, target);
    if (cand < best) best = cand;
  }
  return best;
}

double VipTree::PointToNode(const Point& a, PartitionId pa, NodeId n) const {
  if (NodeContainsPartition(n, pa)) return 0.0;
  const std::span<const DoorId> access_doors = node(n).access_doors;
  double best = kInfDistance;
  for (DoorId d1 : venue_->partition(pa).doors) {
    const double leg = PointToDoorDistance(a, venue_->door(d1));
    if (leg >= best) continue;
    const double cand =
        leg + ComposeDoorSets(std::span<const DoorId>(&d1, 1), access_doors);
    if (cand < best) best = cand;
  }
  return best;
}

double VipTree::DoorToPartition(DoorId d, PartitionId target) const {
  return MemoizedDoorSets(DistanceMemoKind::kDoorToPartition, d, target,
                          std::span<const DoorId>(&d, 1),
                          venue_->partition(target).doors);
}

double VipTree::PartitionToPartition(PartitionId p, PartitionId q) const {
  if (p == q) return 0.0;
  return MemoizedDoorSets(DistanceMemoKind::kPartitionToPartition, p, q,
                          venue_->partition(p).doors,
                          venue_->partition(q).doors);
}

double VipTree::PartitionToNode(PartitionId p, NodeId n) const {
  if (partition_to_node_ != nullptr) {
    IFLS_DCHECK(p >= 0 &&
                static_cast<std::size_t>(p) < leaf_of_partition_.size());
    IFLS_DCHECK(n >= 0 && static_cast<std::size_t>(n) < nodes_.size());
    BumpMatrixLookups(1);
    return partition_to_node_[static_cast<std::size_t>(p) * nodes_.size() +
                              static_cast<std::size_t>(n)];
  }
  if (NodeContainsPartition(n, p)) return 0.0;
  return MemoizedDoorSets(DistanceMemoKind::kPartitionToNode, p, n,
                          venue_->partition(p).doors, node(n).access_doors);
}

double VipTree::MemoizedDoorSets(DistanceMemoKind kind, std::int32_t from,
                                 std::int32_t to,
                                 std::span<const DoorId> home_doors,
                                 std::span<const DoorId> targets) const {
  if (door_cache_ == nullptr) return ComposeDoorSets(home_doors, targets);
  const std::uint32_t key = memo_keys_.Key(kind, from, to);
  double cached = 0.0;
  if (door_cache_->Lookup(key, &cached)) {
    BumpCacheHits();
    return cached;
  }
  BumpCacheMisses();
  const double best = ComposeDoorSets(home_doors, targets);
  door_cache_->Insert(key, best);
  return best;
}

/// The target doors of a composition and what DoorTerms keeps about them
/// across home doors: per target its leaves and its distances to AD(cb)
/// for each LCA child cb it was composed through (filled on first use);
/// per distinct target leaf, the LCA child pair it shares with the current
/// home leaf; per such pair, the row u composed for the current home door.
struct VipTree::TargetSet {
  struct Target {
    /// Home leaf (of partition_a), the one DoorToDoor composes from, and
    /// the leaf of partition_b: the door is a column of exactly these
    /// leaves' matrices.
    NodeId leaf;
    NodeId other_leaf;
    /// Index of `leaf` in `leaves`.
    std::size_t leaf_slot;
    /// This target's entries in b_offset, one per level k = depth(leaf) -
    /// depth(cb) for cb from `leaf` up to a child of the root.
    std::size_t b_first;
  };
  /// One LCA child pair (ca, cb) of the home leaf `la`: the LCA, the
  /// positions of AD(ca) and AD(cb) in its matrix, and the offset of the
  /// row u composed through it for the current home door (kNone: not yet).
  struct ChildPair {
    NodeId ca;
    NodeId cb;
    const VipNode* lca;
    std::span<const std::int32_t> rows;
    std::span<const std::int32_t> cols;
    std::size_t u_offset;
  };
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::span<const DoorId> doors;
  std::vector<Target> targets;
  std::vector<NodeId> leaves;
  std::vector<std::size_t> b_offset;
  std::vector<double> b;
  /// For the home leaf `la`: per leaf slot the index of its pair in
  /// `pairs`, or kNone when the slot's leaf is `la` itself.
  NodeId la = kInvalidNode;
  std::vector<std::size_t> leaf_pair;
  std::vector<ChildPair> pairs;
  std::vector<double> u;
  std::vector<double> scratch;

  /// Starts a composition toward `target_doors`, keeping buffer capacity.
  void Reset(const VipTree& tree, std::span<const DoorId> target_doors) {
    doors = target_doors;
    targets.resize(doors.size());
    leaves.clear();
    b_offset.clear();
    b.clear();
    la = kInvalidNode;
    for (std::size_t j = 0; j < doors.size(); ++j) {
      const Door& door = tree.venue().door(doors[j]);
      const NodeId leaf = tree.LeafOf(door.partition_a);
      auto it = std::find(leaves.begin(), leaves.end(), leaf);
      if (it == leaves.end()) it = leaves.insert(leaves.end(), leaf);
      targets[j] = {leaf, tree.LeafOf(door.partition_b),
                    static_cast<std::size_t>(it - leaves.begin()),
                    b_offset.size()};
      b_offset.resize(b_offset.size() +
                          static_cast<std::size_t>(tree.node(leaf).depth),
                      kNone);
    }
  }
};

void VipTree::DoorTerms(DoorId d1, TargetSet* set,
                        std::span<double> terms) const {
  // DoorToDoor(d1, t) for a t outside d1's leaves is min_{i,j} (a[i] +
  // M[i][j]) + b[j] through the LCA of their home leaves. Here u[j] = min_i
  // a[i] + M[i][j] is composed once per (d1, LCA child pair) and each target
  // then costs one min_j u[j] + b[j]. Rounding is monotone, so min_i
  // fl(fl(a_i + M_ij) + b_j) == fl(min_i fl(a_i + M_ij) + b_j), and min
  // returns one of its operands: every term is DoorToDoor(d1, t) bit for
  // bit (DESIGN §3.1).
  NodeId leaves[2];
  int count = 0;
  LeavesOfDoor(*this, venue_->door(d1), leaves, &count);
  int rows_in_leaf[2];
  for (int i = 0; i < count; ++i) {
    rows_in_leaf[i] = node(leaves[i]).matrix.RowIndex(d1);
  }
  if (leaves[0] != set->la) {
    // One LCA walk per distinct target leaf, for as long as the home leaf
    // stays the same.
    set->la = leaves[0];
    set->pairs.clear();
    set->leaf_pair.resize(set->leaves.size());
    for (std::size_t k = 0; k < set->leaves.size(); ++k) {
      if (set->leaves[k] == set->la) {
        set->leaf_pair[k] = TargetSet::kNone;
        continue;
      }
      NodeId ca = kInvalidNode;
      NodeId cb = kInvalidNode;
      LcaChildren(*this, set->la, set->leaves[k], &ca, &cb);
      auto it = std::find_if(set->pairs.begin(), set->pairs.end(),
                             [&](const TargetSet::ChildPair& c) {
                               return c.ca == ca && c.cb == cb;
                             });
      if (it == set->pairs.end()) {
        const VipNode& lca = node(node(ca).parent);
        set->pairs.push_back(
            {ca, cb, &lca, lca.child_access_idx(ChildPosition(lca, ca)),
             lca.child_access_idx(ChildPosition(lca, cb)), TargetSet::kNone});
        it = set->pairs.end() - 1;
      }
      set->leaf_pair[k] = static_cast<std::size_t>(it - set->pairs.begin());
    }
  } else {
    for (TargetSet::ChildPair& c : set->pairs) c.u_offset = TargetSet::kNone;
  }
  set->u.clear();

  std::uint64_t direct_cells = 0;
  std::uint64_t composed = 0;
  for (std::size_t j = 0; j < set->doors.size(); ++j) {
    const DoorId t = set->doors[j];
    if (t == d1) {
      terms[j] = 0.0;
      continue;
    }
    const TargetSet::Target& target = set->targets[j];
    // Shared-leaf fast path: the direct cell of the first of d1's leaves
    // that also holds t.
    int shared = -1;
    for (int i = 0; i < count && shared < 0; ++i) {
      if (leaves[i] == target.leaf || leaves[i] == target.other_leaf) {
        shared = i;
      }
    }
    if (shared >= 0) {
      const DoorMatrixView& m = node(leaves[shared]).matrix;
      const int col = m.ColIndex(t);
      IFLS_DCHECK(rows_in_leaf[shared] >= 0 && col >= 0);
      terms[j] = m.At(rows_in_leaf[shared], col);
      ++direct_cells;
      continue;
    }
    IFLS_DCHECK(set->leaf_pair[target.leaf_slot] != TargetSet::kNone);
    TargetSet::ChildPair& c = set->pairs[set->leaf_pair[target.leaf_slot]];
    if (c.u_offset == TargetSet::kNone) {
      const std::span<const double> dist_a =
          AncestorAccessDistances(d1, set->la, c.ca, &set->scratch);
      c.u_offset = set->u.size();
      set->u.resize(c.u_offset + c.cols.size());
      kernels::MinPlusCompose(dist_a.data(), c.rows.data(), c.rows.size(),
                              c.cols.data(), c.cols.size(),
                              c.lca->matrix.dist_data(),
                              c.lca->matrix.num_cols(),
                              set->u.data() + c.u_offset);
      CountKernelInvocation();
      BumpMatrixLookups(c.rows.size() * c.cols.size());
    }
    std::size_t& b_at =
        set->b_offset[target.b_first +
                      static_cast<std::size_t>(node(target.leaf).depth -
                                               node(c.cb).depth)];
    if (b_at == TargetSet::kNone) {
      const std::span<const double> dist_b =
          AncestorAccessDistances(t, target.leaf, c.cb, &set->scratch);
      IFLS_DCHECK(dist_b.size() == c.cols.size());
      b_at = set->b.size();
      set->b.insert(set->b.end(), dist_b.begin(), dist_b.end());
    }
    terms[j] = kernels::MinPlusPairwise(set->u.data() + c.u_offset,
                                        set->b.data() + b_at, c.cols.size());
    ++composed;
  }
  // Every term is one door pair of the per-pair definition, so
  // door_distance_evals counts the terms evaluated.
  BumpMatrixLookups(direct_cells);
  CountKernelInvocation(composed);
  BumpDoorDistanceEvals(direct_cells + composed);
}

double VipTree::ComposeDoorSets(std::span<const DoorId> home_doors,
                                std::span<const DoorId> targets) const {
  // A home door that is also a target is a 0 term, and no term is negative.
  for (DoorId d1 : home_doors) {
    if (std::find(targets.begin(), targets.end(), d1) != targets.end()) {
      return 0.0;
    }
  }
  // Per-thread buffers: the composer sits on every solver's hot path and is
  // never re-entered on one thread.
  static thread_local TargetSet set;
  static thread_local std::vector<double> terms;
  set.Reset(*this, targets);
  terms.resize(targets.size());
  double best = kInfDistance;
  for (DoorId d1 : home_doors) {
    DoorTerms(d1, &set, terms);
    for (const double term : terms) {
      if (term < best) best = term;
    }
  }
  return best;
}

double VipTree::PointToPoint(const Point& a, PartitionId pa, const Point& b,
                             PartitionId pb) const {
  if (pa == pb) return PlanarDistance(a, b);
  const std::span<const DoorId> doors_b = venue_->partition(pb).doors;
  // Per-thread buffers, like ComposeDoorSets' (which this never calls).
  static thread_local TargetSet set;
  static thread_local std::vector<double> terms;
  static thread_local std::vector<double> legs_b;
  set.Reset(*this, doors_b);
  terms.resize(doors_b.size());
  legs_b.resize(doors_b.size());
  for (std::size_t j = 0; j < doors_b.size(); ++j) {
    legs_b[j] = PointToDoorDistance(b, venue_->door(doors_b[j]));
  }
  // The generic loop's order and pruning: every cand is (leg_a + term) +
  // leg_b, and a term is DoorToDoor(d1, t) bit for bit.
  double best = kInfDistance;
  for (DoorId d1 : venue_->partition(pa).doors) {
    const double leg_a = PointToDoorDistance(a, venue_->door(d1));
    if (leg_a >= best) continue;
    DoorTerms(d1, &set, terms);
    for (std::size_t j = 0; j < doors_b.size(); ++j) {
      if (leg_a + legs_b[j] >= best) continue;
      const double cand = leg_a + terms[j] + legs_b[j];
      if (cand < best) best = cand;
    }
  }
  return best;
}

std::vector<double> VipTree::ComposePartitionToNodeTable() const {
  // Each door's terms toward every access door, reduced per node and then
  // per partition. min is exact, so every cell is bit-identical to
  // ComposeDoorSets(doors(p), AD(n)) (tests/partition_to_node_test.cc).
  const std::size_t num_partitions = venue_->num_partitions();
  const std::size_t num_nodes = nodes_.size();
  const std::size_t num_doors = venue_->num_doors();
  // Index work, not query work: keep it out of the caller's counters (the
  // pool's own threads start without a sink).
  ScopedOracleCounterSink no_counters(nullptr);

  std::vector<DoorId> targets;
  for (const VipNode& n : nodes_) {
    targets.insert(targets.end(), n.access_doors.begin(), n.access_doors.end());
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  std::vector<std::int32_t> slot_of_door(num_doors, -1);
  for (std::size_t j = 0; j < targets.size(); ++j) {
    slot_of_door[static_cast<std::size_t>(targets[j])] =
        static_cast<std::int32_t>(j);
  }

  // door_min[d * N + n]: min over AD(n) of door d's terms. The doors run in
  // one contiguous chunk per pool lane, each with its own target set, whose
  // AD(cb) rows then serve every door of the chunk.
  std::vector<double> door_min(num_doors * num_nodes);
  ThreadPool pool(BuildThreads());
  const std::size_t chunks =
      std::min(num_doors, static_cast<std::size_t>(pool.num_threads()));
  pool.ParallelFor(chunks, [&](std::size_t chunk) {
    TargetSet set;
    set.Reset(*this, targets);
    std::vector<double> terms(targets.size());
    for (std::size_t d = chunk * num_doors / chunks;
         d < (chunk + 1) * num_doors / chunks; ++d) {
      DoorTerms(static_cast<DoorId>(d), &set, terms);
      double* out = door_min.data() + d * num_nodes;
      for (std::size_t n = 0; n < num_nodes; ++n) {
        double best = kInfDistance;
        for (DoorId t : nodes_[n].access_doors) {
          const double term =
              terms[static_cast<std::size_t>(
                  slot_of_door[static_cast<std::size_t>(t)])];
          if (term < best) best = term;
        }
        out[n] = best;
      }
    }
  });

  std::vector<double> table(num_partitions * num_nodes);
  pool.ParallelFor(num_partitions, [&](std::size_t p) {
    double* row = table.data() + p * num_nodes;
    std::fill(row, row + num_nodes, kInfDistance);
    for (DoorId d : venue_->partition(static_cast<PartitionId>(p)).doors) {
      const double* mins =
          door_min.data() + static_cast<std::size_t>(d) * num_nodes;
      for (std::size_t n = 0; n < num_nodes; ++n) {
        if (mins[n] < row[n]) row[n] = mins[n];
      }
    }
    for (NodeId c = LeafOf(static_cast<PartitionId>(p)); c != kInvalidNode;
         c = node(c).parent) {
      row[static_cast<std::size_t>(c)] = 0.0;
    }
  });
  return table;
}

DoorId VipTree::FirstHop(DoorId a, DoorId b) const {
  if (a == b) return kInvalidDoor;
  const Door& door_a = venue_->door(a);
  NodeId leaves_a[2];
  int count_a = 0;
  LeavesOfDoor(*this, door_a, leaves_a, &count_a);
  for (int i = 0; i < count_a; ++i) {
    const VipNode& leaf = node(leaves_a[i]);
    const int row = leaf.matrix.RowIndex(a);
    const int col = leaf.matrix.ColIndex(b);
    if (row >= 0 && col >= 0) return leaf.matrix.FirstHopAt(row, col);
  }
  return kInvalidDoor;
}

}  // namespace ifls
