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
  const std::uint32_t cache_key =
      memo_keys_.Key(DistanceMemoKind::kDoorPair, a, b);
  if (door_cache_ != nullptr) {
    double cached = 0.0;
    if (door_cache_->Lookup(cache_key, &cached)) {
      BumpCacheHits();
      return cached;
    }
    BumpCacheMisses();
  }
  BumpDoorDistanceEvals();
  const Door& door_a = venue_->door(a);

  // Fast path: both doors incident to one leaf -> direct matrix lookup.
  NodeId leaves_a[2];
  int count_a = 0;
  LeavesOfDoor(*this, door_a, leaves_a, &count_a);
  for (int i = 0; i < count_a; ++i) {
    const VipNode& leaf = node(leaves_a[i]);
    const int row = leaf.matrix.RowIndex(a);
    const int col = leaf.matrix.ColIndex(b);
    if (row >= 0 && col >= 0) {
      BumpMatrixLookups(1);
      const double result = leaf.matrix.At(row, col);
      if (door_cache_ != nullptr) door_cache_->Insert(cache_key, result);
      return result;
    }
  }

  // General case: compose through the LCA of the two home leaves.
  const NodeId la = LeafOf(door_a.partition_a);
  const NodeId lb = LeafOf(venue_->door(b).partition_a);
  NodeId ca = kInvalidNode;
  NodeId cb = kInvalidNode;
  LcaChildren(*this, la, lb, &ca, &cb);
  const VipNode& lca = node(node(ca).parent);

  // Per-thread reusable composition buffers: DoorToDoor sits on the hot
  // path of every solver, and thread-locality both removes the per-call
  // allocations and keeps concurrent readers from sharing scratch.
  // DoorToDoor never re-enters itself, so one scratch pair per thread
  // suffices.
  static thread_local std::vector<double> scratch_a;
  static thread_local std::vector<double> scratch_b;
  const std::span<const double> dist_a =
      AncestorAccessDistances(a, la, ca, &scratch_a);
  const std::span<const double> dist_b =
      AncestorAccessDistances(b, lb, cb, &scratch_b);
  const std::span<const std::int32_t> rows =
      lca.child_access_idx(ChildPosition(lca, ca));
  const std::span<const std::int32_t> cols =
      lca.child_access_idx(ChildPosition(lca, cb));

  // The kernel evaluates the exact reference expression
  // (dist_a[i] + m) + dist_b[j]; unreachable rows (dist_a[i] == inf) yield
  // +inf candidates, which never beat a finite minimum, so skipping them is
  // unnecessary for bit-identity.
  const double best = kernels::MinPlusJoin(
      dist_a.data(), rows.data(), rows.size(), dist_b.data(), cols.data(),
      cols.size(), lca.matrix.dist_data(), lca.matrix.num_cols());
  CountKernelInvocation();
  BumpMatrixLookups(rows.size() * cols.size());
  if (door_cache_ != nullptr) door_cache_->Insert(cache_key, best);
  return best;
}

double VipTree::PointToPartition(const Point& a, PartitionId pa,
                                 PartitionId target) const {
  if (pa == target) return 0.0;
  const Partition& part_a = venue_->partition(pa);
  if (part_a.doors.size() == 1) {
    // Paper §5.3.1 Case 1: the single exit door makes the partition-level
    // distance reusable; only the local leg differs per point. Bit-identical
    // to the generic composition below: rounding is monotone, so
    // leg + min(d) == min(leg + d). The door-to-partition leg stays the
    // generic pair-by-pair loop, not the batched override: this path feeds
    // the baseline's NN search in the paper figures (DESIGN §3.1).
    const Door& only = venue_->door(part_a.doors[0]);
    return PointToDoorDistance(a, only) +
           DistanceOracle::DoorToPartition(only.id, target);
  }
  // General case: the interface's generic composition (identical loops to
  // the pre-oracle implementation).
  return DistanceOracle::PointToPartition(a, pa, target);
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

double VipTree::ComposeDoorSets(std::span<const DoorId> home_doors,
                                std::span<const DoorId> targets) const {
  // Same terms as min over home_doors x targets of DoorToDoor(d1, t),
  // batched. DoorToDoor's general case joins min_{i,j} (a[i] + M[i][j]) +
  // b[j]; here u[j] = min_i a[i] + M[i][j] is composed once per (d1, LCA
  // child pair) and each target then costs one min_j u[j] + b[j]. Rounding
  // is monotone, so min_i fl(fl(a_i + M_ij) + b_j) == fl(min_i fl(a_i +
  // M_ij) + b_j), and min returns one of its operands: the result is
  // bit-identical to the per-pair loop (DESIGN §3.1).
  //
  // A home door that is also a target is a 0 term, and no term is negative.
  for (DoorId d1 : home_doors) {
    if (std::find(targets.begin(), targets.end(), d1) != targets.end()) {
      return 0.0;
    }
  }

  // Per target, hoisted out of the home-door loop: the slot of its home
  // leaf among the distinct target leaves, and its distances to AD(cb) for
  // the LCA child cb it last composed through, copied into `b_flat`.
  struct TargetRow {
    std::size_t leaf_slot;
    NodeId cb;
    std::size_t offset;
  };
  static thread_local std::vector<TargetRow> target_rows;
  static thread_local std::vector<double> b_flat;
  // Per distinct target leaf, for the current home leaf `la`: the index of
  // its LCA child pair in `pairs`, or kSharedLeaf when it is `la` itself.
  // LCA walks thus run once per (home leaf, target leaf), not per door pair.
  static thread_local std::vector<NodeId> target_leaves;
  static thread_local std::vector<std::size_t> leaf_pair;
  // One LCA child pair (ca, cb) of `la`: the LCA, the positions of AD(ca)
  // and AD(cb) in its matrix, and the row u composed through it for the
  // current home door (|AD(cb)| values at `offset` in `u_flat`, or
  // kNotComposed).
  struct ChildPair {
    NodeId ca;
    NodeId cb;
    const VipNode* lca;
    std::span<const std::int32_t> rows;
    std::span<const std::int32_t> cols;
    std::size_t offset;
  };
  static thread_local std::vector<ChildPair> pairs;
  static thread_local std::vector<double> u_flat;
  static thread_local std::vector<double> scratch;
  constexpr std::size_t kSharedLeaf = ~std::size_t{0};
  constexpr std::size_t kNotComposed = ~std::size_t{0};

  target_rows.resize(targets.size());
  target_leaves.clear();
  b_flat.clear();
  for (std::size_t j = 0; j < targets.size(); ++j) {
    const NodeId lb = LeafOf(venue_->door(targets[j]).partition_a);
    auto it = std::find(target_leaves.begin(), target_leaves.end(), lb);
    if (it == target_leaves.end()) {
      target_leaves.push_back(lb);
      it = target_leaves.end() - 1;
    }
    target_rows[j] = {static_cast<std::size_t>(it - target_leaves.begin()),
                      kInvalidNode, 0};
  }

  double best = kInfDistance;
  std::uint64_t direct_cells = 0;
  std::uint64_t pairwise_calls = 0;
  NodeId la = kInvalidNode;
  for (DoorId d1 : home_doors) {
    const Door& door1 = venue_->door(d1);
    NodeId leaves[2];
    int count = 0;
    LeavesOfDoor(*this, door1, leaves, &count);
    int rows_in_leaf[2];
    for (int i = 0; i < count; ++i) {
      rows_in_leaf[i] = node(leaves[i]).matrix.RowIndex(d1);
    }
    if (leaves[0] != la) {
      la = leaves[0];
      pairs.clear();
      leaf_pair.resize(target_leaves.size());
      for (std::size_t k = 0; k < target_leaves.size(); ++k) {
        // A target homed in `la` always takes the shared-leaf fast path.
        if (target_leaves[k] == la) {
          leaf_pair[k] = kSharedLeaf;
          continue;
        }
        NodeId ca = kInvalidNode;
        NodeId cb = kInvalidNode;
        LcaChildren(*this, la, target_leaves[k], &ca, &cb);
        auto it = std::find_if(pairs.begin(), pairs.end(),
                               [&](const ChildPair& c) {
                                 return c.ca == ca && c.cb == cb;
                               });
        if (it == pairs.end()) {
          const VipNode& lca = node(node(ca).parent);
          pairs.push_back({ca, cb, &lca,
                           lca.child_access_idx(ChildPosition(lca, ca)),
                           lca.child_access_idx(ChildPosition(lca, cb)),
                           kNotComposed});
          it = pairs.end() - 1;
        }
        leaf_pair[k] = static_cast<std::size_t>(it - pairs.begin());
      }
    } else {
      for (ChildPair& c : pairs) c.offset = kNotComposed;
    }
    u_flat.clear();
    for (std::size_t j = 0; j < targets.size(); ++j) {
      // Shared-leaf fast path: the direct matrix cell, as DoorToDoor reads it.
      bool direct = false;
      double cand = kInfDistance;
      for (int i = 0; i < count && !direct; ++i) {
        const DoorMatrixView& m = node(leaves[i]).matrix;
        const int col = m.ColIndex(targets[j]);
        if (rows_in_leaf[i] >= 0 && col >= 0) {
          ++direct_cells;
          cand = m.At(rows_in_leaf[i], col);
          direct = true;
        }
      }
      if (!direct) {
        TargetRow& t = target_rows[j];
        IFLS_DCHECK(leaf_pair[t.leaf_slot] != kSharedLeaf);
        ChildPair& c = pairs[leaf_pair[t.leaf_slot]];
        if (c.offset == kNotComposed) {
          const std::span<const double> dist_a =
              AncestorAccessDistances(d1, la, c.ca, &scratch);
          c.offset = u_flat.size();
          u_flat.resize(c.offset + c.cols.size());
          kernels::MinPlusCompose(dist_a.data(), c.rows.data(), c.rows.size(),
                                  c.cols.data(), c.cols.size(),
                                  c.lca->matrix.dist_data(),
                                  c.lca->matrix.num_cols(),
                                  u_flat.data() + c.offset);
          CountKernelInvocation();
          BumpMatrixLookups(c.rows.size() * c.cols.size());
        }
        if (t.cb != c.cb) {
          const std::span<const double> dist_b = AncestorAccessDistances(
              targets[j], target_leaves[t.leaf_slot], c.cb, &scratch);
          IFLS_DCHECK(dist_b.size() == c.cols.size());
          t.cb = c.cb;
          t.offset = b_flat.size();
          b_flat.insert(b_flat.end(), dist_b.begin(), dist_b.end());
        }
        cand = kernels::MinPlusPairwise(u_flat.data() + c.offset,
                                        b_flat.data() + t.offset,
                                        c.cols.size());
        ++pairwise_calls;
      }
      if (cand < best) best = cand;
    }
  }
  // Counted once per call. Every term is one door pair of the per-pair
  // definition, so door_distance_evals counts the terms evaluated.
  BumpMatrixLookups(direct_cells);
  CountKernelInvocation(pairwise_calls);
  BumpDoorDistanceEvals(direct_cells + pairwise_calls);
  return best;
}

std::vector<double> VipTree::ComposePartitionToNodeTable() const {
  // The terms of ComposeDoorSets(doors(p), AD(n)) depend only on the door
  // pair (d1, t): the direct leaf cell when t lies in one of d1's leaves,
  // else MinPlusPairwise(u, b) with u composed for d1 through the LCA child
  // pair of their home leaves and b = t's distances to AD(cb). So each
  // door's terms toward every access door are evaluated once, with the same
  // kernel calls on the same operands, and the table takes per-node, then
  // per-partition minima of them. min is exact, so every cell is bit-
  // identical to the composer's (tests/partition_to_node_test.cc).
  const std::size_t num_partitions = venue_->num_partitions();
  const std::size_t num_nodes = nodes_.size();
  const std::size_t num_doors = venue_->num_doors();
  // Index work, not query work: keep it out of the caller's counters (the
  // pool's own threads start without a sink).
  ScopedOracleCounterSink no_counters(nullptr);

  // Targets: every node's access doors, sorted by home leaf so one LCA walk
  // serves each (door leaf, target leaf) group.
  struct Target {
    NodeId leaf;
    DoorId door;
  };
  std::vector<Target> targets;
  {
    std::vector<DoorId> doors;
    for (const VipNode& n : nodes_) {
      doors.insert(doors.end(), n.access_doors.begin(), n.access_doors.end());
    }
    std::sort(doors.begin(), doors.end());
    doors.erase(std::unique(doors.begin(), doors.end()), doors.end());
    targets.reserve(doors.size());
    for (DoorId t : doors) {
      targets.push_back({LeafOf(venue_->door(t).partition_a), t});
    }
    std::sort(targets.begin(), targets.end(),
              [](const Target& a, const Target& b) {
                return a.leaf != b.leaf ? a.leaf < b.leaf : a.door < b.door;
              });
  }
  std::vector<std::int32_t> slot_of_door(num_doors, -1);
  std::vector<std::size_t> group_begin;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    slot_of_door[static_cast<std::size_t>(targets[i].door)] =
        static_cast<std::int32_t>(i);
    if (i == 0 || targets[i].leaf != targets[i - 1].leaf) {
      group_begin.push_back(i);
    }
  }
  group_begin.push_back(targets.size());

  // Per target t homed in leaf lb, its distances to AD(c) for every c from
  // lb up to a child of the root: AncestorAccessDistances(t, lb, c), the b
  // operand of every composed term toward t. b_level[b_first[i] + k] is the
  // offset in b_flat of level k = depth(lb) - depth(c).
  std::vector<double> b_flat;
  std::vector<std::size_t> b_level;
  std::vector<std::size_t> b_first(targets.size());
  {
    std::vector<double> scratch;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      b_first[i] = b_level.size();
      for (NodeId c = targets[i].leaf; node(c).parent != kInvalidNode;
           c = node(c).parent) {
        const std::span<const double> row =
            AncestorAccessDistances(targets[i].door, targets[i].leaf, c,
                                    &scratch);
        b_level.push_back(b_flat.size());
        b_flat.insert(b_flat.end(), row.begin(), row.end());
      }
    }
  }

  // door_min[d * N + n]: min over AD(n) of door d's terms (0 when d is an
  // access door of n). Each door writes its own row.
  std::vector<double> door_min(num_doors * num_nodes);
  ThreadPool pool(BuildThreads());
  pool.ParallelFor(num_doors, [&](std::size_t d) {
    // One LCA child pair (ca, cb) of d1's home leaf and the row u composed
    // through it: |AD(cb)| = width values at `offset` in u_flat.
    struct ChildPair {
      NodeId ca;
      NodeId cb;
      std::size_t offset;
      std::size_t width;
    };
    // Per-thread buffers, bound once: each access of a thread_local
    // checks its initialization.
    static thread_local std::vector<ChildPair> pairs_buffer;
    static thread_local std::vector<double> u_buffer;
    static thread_local std::vector<double> terms_buffer;
    static thread_local std::vector<char> direct_buffer;
    static thread_local std::vector<double> scratch_buffer;
    std::vector<ChildPair>& pairs = pairs_buffer;
    std::vector<double>& u_flat = u_buffer;
    std::vector<double>& terms = terms_buffer;
    std::vector<char>& direct = direct_buffer;
    std::vector<double>& scratch = scratch_buffer;
    pairs.clear();
    u_flat.clear();
    terms.resize(targets.size());
    direct.assign(targets.size(), 0);

    const DoorId d1 = static_cast<DoorId>(d);
    NodeId leaves[2];
    int count = 0;
    LeavesOfDoor(*this, venue_->door(d1), leaves, &count);
    // Shared-leaf fast path: a target in one of d1's leaves takes the
    // direct matrix cell, as DoorToDoor reads it (the first such leaf).
    for (int i = 0; i < count; ++i) {
      const DoorMatrixView& m = node(leaves[i]).matrix;
      const int row = m.RowIndex(d1);
      if (row < 0) continue;
      const std::span<const DoorId> cols = m.cols();
      for (std::size_t c = 0; c < cols.size(); ++c) {
        const std::int32_t j = slot_of_door[static_cast<std::size_t>(cols[c])];
        if (j < 0 || direct[static_cast<std::size_t>(j)]) continue;
        direct[static_cast<std::size_t>(j)] = 1;
        terms[static_cast<std::size_t>(j)] = m.At(row, static_cast<int>(c));
      }
    }
    const NodeId la = leaves[0];
    for (std::size_t g = 0; g + 1 < group_begin.size(); ++g) {
      const NodeId lb = targets[group_begin[g]].leaf;
      // The group's pair and b-row level, walked on first use.
      const ChildPair* pair = nullptr;
      std::size_t level = 0;
      for (std::size_t j = group_begin[g]; j < group_begin[g + 1]; ++j) {
        if (direct[j]) continue;
        if (pair == nullptr) {
          NodeId ca = kInvalidNode;
          NodeId cb = kInvalidNode;
          LcaChildren(*this, la, lb, &ca, &cb);
          auto it = std::find_if(pairs.begin(), pairs.end(),
                                 [&](const ChildPair& c) {
                                   return c.ca == ca && c.cb == cb;
                                 });
          if (it == pairs.end()) {
            const VipNode& lca = node(node(ca).parent);
            const std::span<const std::int32_t> rows =
                lca.child_access_idx(ChildPosition(lca, ca));
            const std::span<const std::int32_t> cols =
                lca.child_access_idx(ChildPosition(lca, cb));
            const std::span<const double> dist_a =
                AncestorAccessDistances(d1, la, ca, &scratch);
            const std::size_t offset = u_flat.size();
            u_flat.resize(offset + cols.size());
            kernels::MinPlusCompose(dist_a.data(), rows.data(), rows.size(),
                                    cols.data(), cols.size(),
                                    lca.matrix.dist_data(),
                                    lca.matrix.num_cols(),
                                    u_flat.data() + offset);
            pairs.push_back({ca, cb, offset, cols.size()});
            it = pairs.end() - 1;
          }
          pair = &*it;
          level = static_cast<std::size_t>(node(lb).depth - node(cb).depth);
        }
        terms[j] = kernels::MinPlusPairwise(
            u_flat.data() + pair->offset,
            b_flat.data() + b_level[b_first[j] + level], pair->width);
      }
    }

    double* out = door_min.data() + d * num_nodes;
    for (std::size_t n = 0; n < num_nodes; ++n) {
      double best = kInfDistance;
      for (DoorId t : nodes_[n].access_doors) {
        if (t == d1) {
          best = 0.0;
          break;
        }
        const std::int32_t j = slot_of_door[static_cast<std::size_t>(t)];
        const double cand = terms[static_cast<std::size_t>(j)];
        if (cand < best) best = cand;
      }
      out[n] = best;
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

double VipTree::PointToNode(const Point& a, PartitionId pa, NodeId n) const {
  if (NodeContainsPartition(n, pa)) return 0.0;
  const VipNode& target = node(n);
  const Partition& part = venue_->partition(pa);
  double best = kInfDistance;
  for (DoorId d1 : part.doors) {
    const double leg = PointToDoorDistance(a, venue_->door(d1));
    if (leg >= best) continue;
    for (DoorId ad : target.access_doors) {
      const double cand = leg + DoorToDoor(d1, ad);
      if (cand < best) best = cand;
    }
  }
  return best;
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
