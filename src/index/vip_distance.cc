#include <algorithm>
#include <optional>

#include "src/common/logging.h"
#include "src/common/trace.h"
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

}  // namespace

void VipTree::DistancesToAncestorAccessDoors(DoorId a, NodeId leaf,
                                             NodeId ancestor,
                                             std::vector<double>* out) const {
  const VipNode& leaf_node = node(leaf);
  const VipNode& anc_node = node(ancestor);
  out->clear();
  if (ancestor == leaf) {
    const int row = leaf_node.matrix.RowIndex(a);
    IFLS_DCHECK(row >= 0);
    const std::size_t n = leaf_node.access_door_idx.size();
    out->resize(n);
    kernels::GatherCells(
        leaf_node.matrix.dist_data() +
            static_cast<std::size_t>(row) * leaf_node.matrix.num_cols(),
        leaf_node.access_door_idx.data(), n, out->data());
    CountKernelInvocation();
    BumpMatrixLookups(n);
    return;
  }
  if (options_.build_leaf_to_ancestor) {
    // VIP mode: direct lookup in the materialized leaf->ancestor matrix.
    const int k = leaf_node.depth - anc_node.depth - 1;
    IFLS_DCHECK(k >= 0 &&
                static_cast<std::size_t>(k) < leaf_node.ancestor_matrices.size());
    const DoorMatrixView& m =
        leaf_node.ancestor_matrices[static_cast<std::size_t>(k)];
    const int row = m.RowIndex(a);
    IFLS_DCHECK(row >= 0);
    out->reserve(m.num_cols());
    for (std::size_t c = 0; c < m.num_cols(); ++c) {
      out->push_back(m.At(row, static_cast<int>(c)));
    }
    BumpMatrixLookups(m.num_cols());
    return;
  }
  // IP mode: compose along the node chain leaf -> ... -> ancestor. At each
  // step, distances to the current node's access doors are folded through
  // the parent's matrix into distances to the parent's access doors.
  std::vector<double> dist;
  DistancesToAncestorAccessDoors(a, leaf, leaf, &dist);  // over AD(leaf)
  NodeId cur = leaf;
  while (cur != ancestor) {
    const NodeId parent_id = node(cur).parent;
    IFLS_CHECK(parent_id != kInvalidNode)
        << "ancestor is not on the leaf's root chain";
    const VipNode& parent = node(parent_id);
    // Position of `cur` among the parent's children (fanout is small).
    std::size_t child_pos = 0;
    while (parent.children[child_pos] != cur) ++child_pos;
    const std::span<const std::int32_t> rows =
        parent.child_access_idx(child_pos);
    const std::span<const std::int32_t> cols = parent.access_door_idx;
    std::vector<double> next(cols.size());
    kernels::MinPlusCompose(dist.data(), rows.data(), rows.size(), cols.data(),
                            cols.size(), parent.matrix.dist_data(),
                            parent.matrix.num_cols(), next.data());
    CountKernelInvocation();
    BumpMatrixLookups(rows.size() * cols.size());
    dist = std::move(next);
    cur = parent_id;
  }
  *out = std::move(dist);
}

double VipTree::DoorToDoor(DoorId a, DoorId b) const {
  if (a == b) return 0.0;
  // Per-orientation key, deliberately NOT normalized to (min, max): the
  // composed value for (a, b) associates its sums in the opposite order
  // from (b, a) and may differ in the last ULP, so serving one orientation
  // from the other's entry would make a warm cache visibly diverge from a
  // cold recompute. Caching each orientation separately keeps cached and
  // uncached answers bit-identical.
  const std::uint64_t cache_key = (static_cast<std::uint64_t>(a) << 32) |
                                  static_cast<std::uint32_t>(b);
  std::optional<TraceSpan> fill_span;
  if (options_.enable_door_distance_cache) {
    double cached = 0.0;
    if (CachedDoorDistance(cache_key, &cached)) {
      BumpCacheHits();
      return cached;
    }
    BumpCacheMisses();
    // Everything below is the work a warm cache would have skipped.
    if (TraceEnabled()) {
      fill_span.emplace(TraceCategory::kCache, "door_cache_fill");
    }
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
      if (options_.enable_door_distance_cache) {
        StoreDoorDistance(cache_key, result);
      }
      return result;
    }
  }

  // General case: compose through the LCA of the two home leaves.
  TraceSpan compose_span(TraceCategory::kOracle, "vip_lca_compose");
  const Door& door_b = venue_->door(b);
  const NodeId la = LeafOf(door_a.partition_a);
  const NodeId lb = LeafOf(door_b.partition_a);
  IFLS_DCHECK(la != lb);  // same leaf was handled by the fast path

  // Walk both sides up to the children of the LCA.
  NodeId ca = la;
  NodeId cb = lb;
  while (node(ca).depth > node(cb).depth) ca = node(ca).parent;
  while (node(cb).depth > node(ca).depth) cb = node(cb).parent;
  while (node(ca).parent != node(cb).parent) {
    ca = node(ca).parent;
    cb = node(cb).parent;
  }
  IFLS_DCHECK(ca != cb);
  const VipNode& lca = node(node(ca).parent);

  // Per-thread reusable composition buffers: DoorToDoor sits on the hot
  // path of every solver, and thread-locality both removes the per-call
  // allocations and keeps concurrent readers from sharing scratch.
  // DoorToDoor never re-enters itself, so one scratch pair per thread
  // suffices.
  static thread_local std::vector<double> dist_a;
  static thread_local std::vector<double> dist_b;
  DistancesToAncestorAccessDoors(a, la, ca, &dist_a);
  DistancesToAncestorAccessDoors(b, lb, cb, &dist_b);

  // Positions of the two children among the LCA's children (small fanout).
  std::size_t pos_a = 0;
  while (lca.children[pos_a] != ca) ++pos_a;
  std::size_t pos_b = 0;
  while (lca.children[pos_b] != cb) ++pos_b;
  const std::span<const std::int32_t> rows = lca.child_access_idx(pos_a);
  const std::span<const std::int32_t> cols = lca.child_access_idx(pos_b);

  // The kernel evaluates the exact reference expression
  // (dist_a[i] + m) + dist_b[j]; unreachable rows (dist_a[i] == inf) yield
  // +inf candidates, which never beat a finite minimum, so skipping them is
  // unnecessary for bit-identity.
  const double best = kernels::MinPlusJoin(
      dist_a.data(), rows.data(), rows.size(), dist_b.data(), cols.data(),
      cols.size(), lca.matrix.dist_data(), lca.matrix.num_cols());
  CountKernelInvocation();
  BumpMatrixLookups(rows.size() * cols.size());
  if (options_.enable_door_distance_cache) {
    StoreDoorDistance(cache_key, best);
  }
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
    // leg + min(d) == min(leg + d).
    const Door& only = venue_->door(part_a.doors[0]);
    return PointToDoorDistance(a, only) +
           DoorToPartition(only.id, target);
  }
  // General case: the interface's generic composition (identical loops to
  // the pre-oracle implementation).
  return DistanceOracle::PointToPartition(a, pa, target);
}

double VipTree::PartitionToNode(PartitionId p, NodeId n) const {
  if (NodeContainsPartition(n, p)) return 0.0;
  const VipNode& target = node(n);
  const Partition& part = venue_->partition(p);
  double best = kInfDistance;
  for (DoorId d1 : part.doors) {
    for (DoorId ad : target.access_doors) {
      const double cand = DoorToDoor(d1, ad);
      if (cand < best) best = cand;
    }
  }
  return best;
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
