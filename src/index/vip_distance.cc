#include <algorithm>

#include "src/common/logging.h"
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

/// Tag bit of the (partition, node) bound entries in the door cache.
/// Door-pair keys pack two 31-bit ids and never set it.
constexpr std::uint64_t kBoundKeyTag = std::uint64_t{1} << 63;

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
  const std::uint64_t cache_key = (static_cast<std::uint64_t>(a) << 32) |
                                  static_cast<std::uint32_t>(b);
  if (options_.enable_door_distance_cache) {
    double cached = 0.0;
    if (CachedDoorDistance(cache_key, &cached)) {
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
      if (options_.enable_door_distance_cache) {
        StoreDoorDistance(cache_key, result);
      }
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
  const std::uint64_t cache_key = kBoundKeyTag |
                                  (static_cast<std::uint64_t>(p) << 32) |
                                  static_cast<std::uint32_t>(n);
  if (options_.enable_door_distance_cache) {
    double cached = 0.0;
    if (CachedDoorDistance(cache_key, &cached)) {
      BumpCacheHits();
      return cached;
    }
    BumpCacheMisses();
  }
  const double best = ComposePartitionToNode(p, n);
  if (options_.enable_door_distance_cache) {
    StoreDoorDistance(cache_key, best);
  }
  return best;
}

double VipTree::ComposePartitionToNode(PartitionId p, NodeId n) const {
  // Same terms as min over doors(p) x AD(n) of DoorToDoor(d1, ad), batched.
  // DoorToDoor's general case joins min_{i,j} (a[i] + M[i][j]) + b[j]; here
  // u[j] = min_i a[i] + M[i][j] is composed once per (d1, LCA child pair)
  // and each access door then costs one min_j u[j] + b[j]. Rounding is
  // monotone, so min_i fl(fl(a_i + M_ij) + b_j) == fl(min_i fl(a_i + M_ij)
  // + b_j), and min returns one of its operands: the result is
  // bit-identical to the per-pair loop (DESIGN §3.1).
  const std::span<const DoorId> ads = node(n).access_doors;
  const std::span<const DoorId> home_doors = venue_->partition(p).doors;
  // A door of p that is an access door of n is a 0 term, and no term is
  // negative.
  for (DoorId d1 : home_doors) {
    if (std::binary_search(ads.begin(), ads.end(), d1)) return 0.0;
  }

  // Per access door, hoisted out of the home-door loop: its home leaf, and
  // its distances to AD(cb) for the LCA child cb it last composed through
  // (the leaf->ancestor matrix row in VIP mode, else held in `b_scratch`).
  static thread_local std::vector<NodeId> b_leaf;
  static thread_local std::vector<NodeId> b_node;
  static thread_local std::vector<std::span<const double>> b_dist;
  static thread_local std::vector<std::vector<double>> b_scratch;
  b_leaf.resize(ads.size());
  b_node.assign(ads.size(), kInvalidNode);
  b_dist.resize(ads.size());
  if (b_scratch.size() < ads.size()) b_scratch.resize(ads.size());
  for (std::size_t j = 0; j < ads.size(); ++j) {
    b_leaf[j] = LeafOf(venue_->door(ads[j]).partition_a);
  }

  // One composed row u per distinct (ca, cb) of the current home door:
  // |AD(cb)| values stored at `offset` in `u_flat`.
  struct Composed {
    NodeId ca;
    NodeId cb;
    std::size_t offset;
    std::size_t width;
  };
  static thread_local std::vector<Composed> composed;
  static thread_local std::vector<double> u_flat;
  static thread_local std::vector<double> a_scratch;

  double best = kInfDistance;
  std::uint64_t direct_cells = 0;
  std::uint64_t pairwise_calls = 0;
  for (DoorId d1 : home_doors) {
    const Door& door1 = venue_->door(d1);
    NodeId leaves[2];
    int count = 0;
    LeavesOfDoor(*this, door1, leaves, &count);
    int rows_in_leaf[2];
    for (int i = 0; i < count; ++i) {
      rows_in_leaf[i] = node(leaves[i]).matrix.RowIndex(d1);
    }
    const NodeId la = leaves[0];
    composed.clear();
    u_flat.clear();
    for (std::size_t j = 0; j < ads.size(); ++j) {
      // Shared-leaf fast path: the direct matrix cell, as DoorToDoor reads it.
      bool direct = false;
      double cand = kInfDistance;
      for (int i = 0; i < count && !direct; ++i) {
        const DoorMatrixView& m = node(leaves[i]).matrix;
        const int col = m.ColIndex(ads[j]);
        if (rows_in_leaf[i] >= 0 && col >= 0) {
          ++direct_cells;
          cand = m.At(rows_in_leaf[i], col);
          direct = true;
        }
      }
      if (!direct) {
        NodeId ca = kInvalidNode;
        NodeId cb = kInvalidNode;
        LcaChildren(*this, la, b_leaf[j], &ca, &cb);
        auto it = std::find_if(
            composed.begin(), composed.end(),
            [&](const Composed& c) { return c.ca == ca && c.cb == cb; });
        if (it == composed.end()) {
          const VipNode& lca = node(node(ca).parent);
          const std::span<const std::int32_t> rows =
              lca.child_access_idx(ChildPosition(lca, ca));
          const std::span<const std::int32_t> cols =
              lca.child_access_idx(ChildPosition(lca, cb));
          const std::span<const double> dist_a =
              AncestorAccessDistances(d1, la, ca, &a_scratch);
          const std::size_t offset = u_flat.size();
          u_flat.resize(offset + cols.size());
          kernels::MinPlusCompose(dist_a.data(), rows.data(), rows.size(),
                                  cols.data(), cols.size(),
                                  lca.matrix.dist_data(),
                                  lca.matrix.num_cols(), u_flat.data() + offset);
          CountKernelInvocation();
          BumpMatrixLookups(rows.size() * cols.size());
          composed.push_back({ca, cb, offset, cols.size()});
          it = composed.end() - 1;
        }
        if (b_node[j] != cb) {
          b_dist[j] =
              AncestorAccessDistances(ads[j], b_leaf[j], cb, &b_scratch[j]);
          b_node[j] = cb;
        }
        IFLS_DCHECK(b_dist[j].size() == it->width);
        cand = kernels::MinPlusPairwise(u_flat.data() + it->offset,
                                        b_dist[j].data(), b_dist[j].size());
        ++pairwise_calls;
      }
      if (cand < best) best = cand;
    }
  }
  // Counted once per call. The terms are not DoorToDoor compositions, so
  // door_distance_evals is left to DoorToDoor.
  BumpMatrixLookups(direct_cells);
  CountKernelInvocation(pairwise_calls);
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
