#include "src/index/vip_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <queue>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/common/workspace_pool.h"
#include "src/graph/door_graph.h"

namespace ifls {
namespace {

/// Sorted, deduplicated copy.
std::vector<DoorId> SortedUnique(std::vector<DoorId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// An item to be clustered: a representative point plus its original index.
struct SpatialItem {
  double x = 0.0;
  double y = 0.0;
  double level = 0.0;
  std::size_t index = 0;
};

/// Orders items spatially — level-major, Hilbert curve within the level —
/// and cuts the order into consecutive chunks of at most `capacity`
/// members. Adjacent rooms along a corridor land in the same chunk, giving
/// the compact, few-access-door nodes the VIP-tree relies on. Chunks also
/// break at level boundaries, so whole floors congeal into single nodes
/// whose only access doors are stair doors — the topology-aware clustering
/// the VIP-tree paper emphasizes for multi-level venues. When level breaks
/// would prevent the level from shrinking (e.g. one node per level already),
/// the function falls back to plain capacity chunking, guaranteeing
/// progress. Returns the cluster index per original item index.
std::vector<int> ChunkBySpatialOrder(std::vector<SpatialItem> items,
                                     int capacity,
                                     bool break_on_level_change = true) {
  double min_x = 0, max_x = 0, min_y = 0, max_y = 0;
  bool first = true;
  for (const SpatialItem& it : items) {
    if (first) {
      min_x = max_x = it.x;
      min_y = max_y = it.y;
      first = false;
    } else {
      min_x = std::min(min_x, it.x);
      max_x = std::max(max_x, it.x);
      min_y = std::min(min_y, it.y);
      max_y = std::max(max_y, it.y);
    }
  }
  constexpr std::uint32_t kOrder = 16;
  const double span_x = std::max(max_x - min_x, 1e-9);
  const double span_y = std::max(max_y - min_y, 1e-9);
  const double cells = static_cast<double>((1u << kOrder) - 1);
  struct Keyed {
    std::int64_t level_key;
    std::uint64_t hilbert;
    std::size_t index;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(items.size());
  for (const SpatialItem& it : items) {
    const auto gx =
        static_cast<std::uint32_t>((it.x - min_x) / span_x * cells);
    const auto gy =
        static_cast<std::uint32_t>((it.y - min_y) / span_y * cells);
    keyed.push_back({static_cast<std::int64_t>(std::llround(it.level)),
                     HilbertIndex(kOrder, gx, gy), it.index});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.level_key != b.level_key) return a.level_key < b.level_key;
    if (a.hilbert != b.hilbert) return a.hilbert < b.hilbert;
    return a.index < b.index;
  });
  std::vector<int> cluster(items.size(), -1);
  int current = 0;
  int members = 0;
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    const bool level_break = break_on_level_change && i > 0 &&
                             keyed[i].level_key != keyed[i - 1].level_key;
    if (members >= capacity || level_break) {
      ++current;
      members = 0;
    }
    cluster[keyed[i].index] = current;
    ++members;
  }
  if (break_on_level_change &&
      static_cast<std::size_t>(current) + 1 >= items.size() &&
      items.size() > 1) {
    // Level breaks stalled the merge (one item per level); merge across
    // levels instead.
    return ChunkBySpatialOrder(std::move(items), capacity, false);
  }
  return cluster;
}

}  // namespace

VipTree::NodeDoors VipTree::DeriveNodeDoors(
    const Venue& venue, const VipTreeStructure& structure, NodeId id,
    const std::function<bool(NodeId, PartitionId)>& contains) {
  const VipTreeStructure::Node& n =
      structure.nodes[static_cast<std::size_t>(id)];
  std::vector<DoorId> doors;
  if (n.is_leaf()) {
    for (PartitionId p : n.partitions) {
      const auto& pd = venue.partition(p).doors;
      doors.insert(doors.end(), pd.begin(), pd.end());
    }
  } else {
    for (NodeId ch : n.children) {
      const auto& cad =
          structure.nodes[static_cast<std::size_t>(ch)].access_doors;
      doors.insert(doors.end(), cad.begin(), cad.end());
    }
  }
  NodeDoors out;
  out.doors = SortedUnique(std::move(doors));
  for (DoorId d : out.doors) {
    const Door& door = venue.door(d);
    if (contains(id, door.partition_a) != contains(id, door.partition_b)) {
      out.access_doors.push_back(d);  // subset of sorted -> sorted
    }
  }
  return out;
}

VipTree::VipTree(VipTree&& other) noexcept
    : venue_(other.venue_),
      options_(other.options_),
      ids_(std::move(other.ids_)),
      dist_(std::move(other.dist_)),
      hops_(std::move(other.hops_)),
      ancestor_views_(std::move(other.ancestor_views_)),
      nodes_(std::move(other.nodes_)),
      leaf_of_partition_(std::move(other.leaf_of_partition_)),
      root_(other.root_),
      num_leaves_(other.num_leaves_),
      height_(other.height_),
      door_cache_(std::move(other.door_cache_)),
      memo_keys_(other.memo_keys_),
      partition_to_node_(other.partition_to_node_),
      mapping_(std::move(other.mapping_)) {
  // Spans and matrix views in nodes_ point into the arenas' heap blocks,
  // which the vector moves transfer verbatim — no rewiring needed.
  other.venue_ = nullptr;
  other.partition_to_node_ = nullptr;
}

VipTree& VipTree::operator=(VipTree&& other) noexcept {
  if (this == &other) return *this;
  VipTree tmp(std::move(other));
  // Steal tmp's state member by member; no self-aliasing remains.
  venue_ = tmp.venue_;
  options_ = tmp.options_;
  ids_ = std::move(tmp.ids_);
  dist_ = std::move(tmp.dist_);
  hops_ = std::move(tmp.hops_);
  ancestor_views_ = std::move(tmp.ancestor_views_);
  nodes_ = std::move(tmp.nodes_);
  leaf_of_partition_ = std::move(tmp.leaf_of_partition_);
  root_ = tmp.root_;
  num_leaves_ = tmp.num_leaves_;
  height_ = tmp.height_;
  door_cache_ = std::move(tmp.door_cache_);
  memo_keys_ = tmp.memo_keys_;
  partition_to_node_ = tmp.partition_to_node_;
  mapping_ = std::move(tmp.mapping_);
  return *this;
}

int VipTree::BuildThreads() const {
  return options_.build_threads <= 0 ? ThreadPool::DefaultThreads()
                                     : options_.build_threads;
}

void VipTree::ClearDistanceCache() const {
  if (door_cache_ != nullptr) door_cache_->Clear();
}

std::size_t VipTree::distance_cache_size() const {
  return door_cache_ != nullptr ? door_cache_->size() : 0;
}

ConcurrentDoorCache::Stats VipTree::door_cache_stats() const {
  return door_cache_ != nullptr ? door_cache_->stats()
                                : ConcurrentDoorCache::Stats{};
}

Result<VipTree> VipTree::Build(const Venue* venue, VipTreeOptions options) {
  if (venue == nullptr) {
    return Status::InvalidArgument("venue must not be null");
  }
  if (options.leaf_capacity < 1 || options.internal_fanout < 2) {
    return Status::InvalidArgument(
        "leaf_capacity must be >= 1 and internal_fanout >= 2");
  }
  IFLS_RETURN_NOT_OK(venue->Validate());

  VipTree tree;
  tree.venue_ = venue;
  tree.options_ = options;

  const std::size_t num_partitions = venue->num_partitions();

  // The clustering phase works on a transient structural description; the
  // result is converted into the flat arena layout in one pass once every
  // id list's exact size is known.
  VipTreeStructure structure;

  // ---- Leaf formation: spatially chunk the partitions. ------------------
  std::vector<SpatialItem> partition_items;
  partition_items.reserve(num_partitions);
  for (std::size_t i = 0; i < num_partitions; ++i) {
    const Partition& p = venue->partition(static_cast<PartitionId>(i));
    const Point c = p.rect.center();
    partition_items.push_back(
        {c.x, c.y, static_cast<double>(p.level()), i});
  }
  std::vector<int> leaf_cluster =
      ChunkBySpatialOrder(std::move(partition_items), options.leaf_capacity);
  const int num_leaves =
      1 + *std::max_element(leaf_cluster.begin(), leaf_cluster.end());

  std::vector<NodeId> leaf_of(num_partitions, kInvalidNode);
  structure.nodes.resize(static_cast<std::size_t>(num_leaves));
  for (int l = 0; l < num_leaves; ++l) {
    structure.nodes[static_cast<std::size_t>(l)].id = static_cast<NodeId>(l);
  }
  for (std::size_t p = 0; p < num_partitions; ++p) {
    const NodeId leaf = static_cast<NodeId>(leaf_cluster[p]);
    structure.nodes[static_cast<std::size_t>(leaf)].partitions.push_back(
        static_cast<PartitionId>(p));
    leaf_of[p] = leaf;
  }

  // ---- Upper levels: spatially chunk nodes until a single root. ---------
  // Each node carries a centroid (partition-count weighted) used as its
  // clustering representative.
  struct Centroid {
    double sum_x = 0, sum_y = 0, sum_level = 0;
    double count = 0;
  };
  std::vector<Centroid> centroids(static_cast<std::size_t>(num_leaves));
  for (std::size_t p = 0; p < num_partitions; ++p) {
    const Partition& part = venue->partition(static_cast<PartitionId>(p));
    const Point c = part.rect.center();
    Centroid& cen = centroids[static_cast<std::size_t>(leaf_cluster[p])];
    cen.sum_x += c.x;
    cen.sum_y += c.y;
    cen.sum_level += part.level();
    cen.count += 1;
  }

  std::vector<NodeId> level;
  level.reserve(static_cast<std::size_t>(num_leaves));
  for (int l = 0; l < num_leaves; ++l) level.push_back(static_cast<NodeId>(l));

  while (level.size() > 1) {
    const std::size_t k = level.size();
    std::vector<SpatialItem> items;
    items.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      const Centroid& c = centroids[i];
      items.push_back({c.sum_x / c.count, c.sum_y / c.count,
                       c.sum_level / c.count, i});
    }
    const std::vector<int> groups =
        ChunkBySpatialOrder(std::move(items), options.internal_fanout);
    const int num_groups = 1 + *std::max_element(groups.begin(), groups.end());
    IFLS_CHECK(static_cast<std::size_t>(num_groups) < k);
    std::vector<NodeId> next_level;
    next_level.reserve(static_cast<std::size_t>(num_groups));
    std::vector<Centroid> next_centroids(
        static_cast<std::size_t>(num_groups));
    for (int g = 0; g < num_groups; ++g) {
      VipTreeStructure::Node parent;
      parent.id = static_cast<NodeId>(structure.nodes.size());
      next_level.push_back(parent.id);
      structure.nodes.push_back(std::move(parent));
    }
    for (std::size_t i = 0; i < k; ++i) {
      const auto g = static_cast<std::size_t>(groups[i]);
      const NodeId parent_id = next_level[g];
      structure.nodes[static_cast<std::size_t>(level[i])].parent = parent_id;
      structure.nodes[static_cast<std::size_t>(parent_id)]
          .children.push_back(level[i]);
      next_centroids[g].sum_x += centroids[i].sum_x;
      next_centroids[g].sum_y += centroids[i].sum_y;
      next_centroids[g].sum_level += centroids[i].sum_level;
      next_centroids[g].count += centroids[i].count;
    }
    level = std::move(next_level);
    centroids = std::move(next_centroids);
  }
  const NodeId root = level.front();

  // ---- Depths (needed for the access-door containment checks below). ----
  std::vector<int> depth(structure.nodes.size(), 0);
  {
    std::queue<NodeId> bfs;
    bfs.push(root);
    while (!bfs.empty()) {
      const NodeId cur = bfs.front();
      bfs.pop();
      for (NodeId ch : structure.nodes[static_cast<std::size_t>(cur)].children) {
        depth[static_cast<std::size_t>(ch)] =
            depth[static_cast<std::size_t>(cur)] + 1;
        bfs.push(ch);
      }
    }
  }

  // ---- Door sets and access doors: leaves first, then internal nodes in
  // ascending id order (children first).
  const auto contains = [&](NodeId nid, PartitionId p) {
    NodeId cur = leaf_of[static_cast<std::size_t>(p)];
    while (cur != kInvalidNode &&
           depth[static_cast<std::size_t>(cur)] >
               depth[static_cast<std::size_t>(nid)]) {
      cur = structure.nodes[static_cast<std::size_t>(cur)].parent;
    }
    return cur == nid;
  };
  for (const bool leaves : {true, false}) {
    for (VipTreeStructure::Node& n : structure.nodes) {
      if (n.is_leaf() != leaves) continue;
      NodeDoors derived = DeriveNodeDoors(*venue, structure, n.id, contains);
      n.doors = std::move(derived.doors);
      n.access_doors = std::move(derived.access_doors);
    }
  }

  IFLS_RETURN_NOT_OK(tree.InitFromStructure(structure));

  // ---- Matrices: one global Dijkstra per door fills every row. -----------
  DoorGraph graph(*venue);
  // door -> nodes whose square matrix has it as a row.
  std::vector<std::vector<NodeId>> matrix_rows(venue->num_doors());
  for (const VipNode& n : tree.nodes_) {
    for (DoorId d : n.doors) {
      matrix_rows[static_cast<std::size_t>(d)].push_back(n.id);
    }
  }
  // Door d's Dijkstra run fills exactly the matrix rows indexed by door d,
  // so distinct doors write disjoint arena cells and the sweep parallelizes
  // without synchronization; the built index is bit-identical for any
  // thread count. Each run stops once every column of those rows is
  // settled: settled labels and first hops are final, so the cells equal a
  // full run's. Each worker leases a reusable Dijkstra workspace so the
  // sweep is allocation-free after warmup.
  const int build_threads = tree.BuildThreads();
  WorkspacePool<DijkstraWorkspace> workspaces;
  const auto fill_rows_for_door = [&](std::size_t d) {
    const DoorId door = static_cast<DoorId>(d);
    WorkspacePool<DijkstraWorkspace>::Lease ws = workspaces.Acquire();
    static thread_local std::vector<DoorId> columns;
    columns.clear();
    for (NodeId nid : matrix_rows[d]) {
      const VipNode& n = tree.nodes_[static_cast<std::size_t>(nid)];
      columns.insert(columns.end(), n.doors.begin(), n.doors.end());
      if (n.is_leaf()) {
        for (const DoorMatrixView& anc : n.ancestor_matrices) {
          columns.insert(columns.end(), anc.cols().begin(), anc.cols().end());
        }
      }
    }
    const ShortestPaths& paths =
        ShortestPathsToTargets(graph, door, columns, ws.get());
    for (NodeId nid : matrix_rows[d]) {
      const VipNode& n = tree.nodes_[static_cast<std::size_t>(nid)];
      tree.FillMatrixRow(n.matrix, door, paths);
      if (n.is_leaf()) {
        for (const DoorMatrixView& anc : n.ancestor_matrices) {
          if (!anc.empty()) tree.FillMatrixRow(anc, door, paths);
        }
      }
    }
  };
  if (build_threads > 1 && venue->num_doors() > 1) {
    ThreadPool pool(build_threads);
    pool.ParallelFor(venue->num_doors(), fill_rows_for_door);
  } else {
    for (std::size_t d = 0; d < venue->num_doors(); ++d) {
      fill_rows_for_door(d);
    }
  }

  return tree;
}

Status VipTree::InitFromStructure(const VipTreeStructure& structure) {
  const std::size_t n_nodes = structure.nodes.size();
  if (n_nodes == 0) {
    return Status::InvalidArgument("tree has no nodes");
  }
  // Both Build and LoadV3FromFile funnel through here with options_
  // already set, so this is the one place the door memo gets allocated:
  // sized from the venue, and left off when its keys overflow 32 bits.
  memo_keys_ = DistanceMemoKeySpace(venue_->num_doors(),
                                    venue_->num_partitions(), n_nodes);
  if (options_.enable_door_distance_cache && memo_keys_.fits()) {
    door_cache_ =
        std::make_unique<ConcurrentDoorCache>(memo_keys_.cache_entries());
  } else {
    door_cache_.reset();
  }
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (structure.nodes[i].id != static_cast<NodeId>(i)) {
      return Status::InvalidArgument("node ids must match their positions");
    }
  }

  // Root: the unique parentless node.
  root_ = kInvalidNode;
  for (const VipTreeStructure::Node& n : structure.nodes) {
    if (n.parent == kInvalidNode) {
      if (root_ != kInvalidNode) {
        return Status::InvalidArgument("tree has multiple roots");
      }
      root_ = n.id;
    }
  }
  if (root_ == kInvalidNode) {
    return Status::InvalidArgument("tree has no root");
  }

  // Partition -> leaf mapping; leaf count.
  leaf_of_partition_.assign(venue_->num_partitions(), kInvalidNode);
  num_leaves_ = 0;
  for (const VipTreeStructure::Node& n : structure.nodes) {
    if (!n.is_leaf()) {
      if (!n.partitions.empty()) {
        return Status::InvalidArgument("internal node owns partitions");
      }
      continue;
    }
    ++num_leaves_;
    for (PartitionId p : n.partitions) {
      if (p < 0 ||
          static_cast<std::size_t>(p) >= leaf_of_partition_.size()) {
        return Status::InvalidArgument("leaf references unknown partition");
      }
      if (leaf_of_partition_[static_cast<std::size_t>(p)] != kInvalidNode) {
        return Status::InvalidArgument("partition assigned to two leaves");
      }
      leaf_of_partition_[static_cast<std::size_t>(p)] = n.id;
    }
  }
  for (std::size_t p = 0; p < leaf_of_partition_.size(); ++p) {
    if (leaf_of_partition_[p] == kInvalidNode) {
      return Status::InvalidArgument("partition " + std::to_string(p) +
                                     " is in no leaf");
    }
  }

  // Depths, height, subtree sizes via BFS from the root.
  std::vector<int> depth(n_nodes, 0);
  std::vector<std::int32_t> subtree(n_nodes, 0);
  {
    // A child listed twice would be reached twice, and could stand in for
    // an unreachable node in the count below.
    std::vector<bool> reached(n_nodes, false);
    std::queue<NodeId> bfs;
    bfs.push(root_);
    height_ = 0;
    std::vector<NodeId> order;
    order.reserve(n_nodes);
    while (!bfs.empty()) {
      const NodeId cur = bfs.front();
      bfs.pop();
      if (reached[static_cast<std::size_t>(cur)]) {
        return Status::InvalidArgument("node reached twice from the root");
      }
      reached[static_cast<std::size_t>(cur)] = true;
      order.push_back(cur);
      const VipTreeStructure::Node& n =
          structure.nodes[static_cast<std::size_t>(cur)];
      height_ = std::max(height_, depth[static_cast<std::size_t>(cur)]);
      for (NodeId ch : n.children) {
        if (ch < 0 || static_cast<std::size_t>(ch) >= n_nodes ||
            structure.nodes[static_cast<std::size_t>(ch)].parent != cur) {
          return Status::InvalidArgument("broken parent/child link");
        }
        depth[static_cast<std::size_t>(ch)] =
            depth[static_cast<std::size_t>(cur)] + 1;
        bfs.push(ch);
      }
    }
    if (order.size() != n_nodes) {
      return Status::InvalidArgument("tree contains unreachable nodes");
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const auto i = static_cast<std::size_t>(*it);
      const VipTreeStructure::Node& n = structure.nodes[i];
      if (n.is_leaf()) {
        subtree[i] = static_cast<std::int32_t>(n.partitions.size());
      } else {
        std::int32_t total = 0;
        for (NodeId ch : n.children) {
          total += subtree[static_cast<std::size_t>(ch)];
        }
        subtree[i] = total;
      }
    }
  }

  // Matrix index maps (no searches at query time), still in per-node
  // temporaries: access_door_idx, plus the flattened child-access table
  // (prefix offsets + concatenated per-child index lists).
  std::vector<std::vector<std::int32_t>> access_idx(n_nodes);
  std::vector<std::vector<std::int32_t>> child_off(n_nodes);
  std::vector<std::vector<std::int32_t>> child_flat(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const VipTreeStructure::Node& n = structure.nodes[i];
    const auto index_in_doors = [&n](DoorId d) -> std::int32_t {
      const auto it = std::lower_bound(n.doors.begin(), n.doors.end(), d);
      if (it == n.doors.end() || *it != d) return -1;
      return static_cast<std::int32_t>(it - n.doors.begin());
    };
    access_idx[i].reserve(n.access_doors.size());
    for (DoorId d : n.access_doors) {
      const std::int32_t idx = index_in_doors(d);
      if (idx < 0) {
        return Status::InvalidArgument(
            "access door missing from its node's door set");
      }
      access_idx[i].push_back(idx);
    }
    if (!n.is_leaf()) {
      child_off[i].reserve(n.children.size() + 1);
      child_off[i].push_back(0);
      for (NodeId ch : n.children) {
        const VipTreeStructure::Node& child =
            structure.nodes[static_cast<std::size_t>(ch)];
        for (DoorId d : child.access_doors) {
          const std::int32_t idx = index_in_doors(d);
          if (idx < 0) {
            return Status::InvalidArgument(
                "child access door missing from parent door set");
          }
          child_flat[i].push_back(idx);
        }
        child_off[i].push_back(
            static_cast<std::int32_t>(child_flat[i].size()));
      }
    }
  }

  // ---- Exact arena totals; reservation happens once, so every span and
  // matrix view handed out below stays valid for the tree's lifetime.
  const bool vip = options_.build_leaf_to_ancestor;
  std::size_t id_total = 0;
  std::size_t dist_total = 0;
  std::size_t anc_view_total = 0;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const VipTreeStructure::Node& n = structure.nodes[i];
    id_total += n.children.size() + n.partitions.size() + n.doors.size() +
                n.access_doors.size() + access_idx[i].size() +
                child_off[i].size() + child_flat[i].size();
    dist_total += n.doors.size() * n.doors.size();
    if (vip && n.is_leaf()) {
      anc_view_total += static_cast<std::size_t>(depth[i]);
      for (NodeId anc = n.parent; anc != kInvalidNode;
           anc = structure.nodes[static_cast<std::size_t>(anc)].parent) {
        dist_total +=
            n.doors.size() *
            structure.nodes[static_cast<std::size_t>(anc)].access_doors.size();
      }
    }
  }
  ids_.Reserve(id_total);
  dist_.Reserve(dist_total);
  hops_.Reserve(dist_total);
  // Mapped arenas validate the computed totals against their section sizes
  // instead of allocating; a mismatch means the snapshot's descriptors and
  // payload disagree, and continuing would hand out spans past the mapping.
  IFLS_RETURN_NOT_OK(ids_.BackingStatus());
  IFLS_RETURN_NOT_OK(dist_.BackingStatus());
  IFLS_RETURN_NOT_OK(hops_.BackingStatus());
  ancestor_views_.clear();
  ancestor_views_.reserve(anc_view_total);
  nodes_.assign(n_nodes, VipNode{});

  // ---- Pass 1: scalar fields and id payloads (node id ascending).
  const auto append_ids = [this](const std::vector<std::int32_t>& v) {
    const std::size_t off = ids_.AppendRange(v.begin(), v.end());
    return std::span<const std::int32_t>(ids_.data() + off, v.size());
  };
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const VipTreeStructure::Node& sn = structure.nodes[i];
    VipNode& n = nodes_[i];
    n.id = sn.id;
    n.parent = sn.parent;
    n.depth = depth[i];
    n.subtree_partitions = subtree[i];
    n.children = append_ids(sn.children);
    n.partitions = append_ids(sn.partitions);
    n.doors = append_ids(sn.doors);
    n.access_doors = append_ids(sn.access_doors);
    n.access_door_idx = append_ids(access_idx[i]);
    n.child_access_off_ = append_ids(child_off[i]);
    n.child_access_flat_ = append_ids(child_flat[i]);
  }

  // ---- Pass 2: matrix payload slots and views (node id ascending; per
  // node the main matrix, then — VIP leaves — ancestor matrices
  // k = 0..depth-1). This order is also the v3 snapshot's payload order.
  const auto allocate_matrix = [this](std::span<const DoorId> rows,
                                      std::span<const DoorId> cols) {
    const std::size_t cells = rows.size() * cols.size();
    const std::size_t off = dist_.Allocate(cells, kInfDistance);
    const std::size_t hop_off = hops_.Allocate(cells, kInvalidDoor);
    IFLS_DCHECK(hop_off == off);
    return DoorMatrixView(rows, cols, dist_.data() + off,
                          hops_.data() + hop_off);
  };
  for (std::size_t i = 0; i < n_nodes; ++i) {
    VipNode& n = nodes_[i];
    n.matrix = allocate_matrix(n.doors, n.doors);
    if (vip && n.is_leaf()) {
      const std::size_t first = ancestor_views_.size();
      for (NodeId anc = n.parent; anc != kInvalidNode;
           anc = nodes_[static_cast<std::size_t>(anc)].parent) {
        ancestor_views_.push_back(allocate_matrix(
            n.doors, nodes_[static_cast<std::size_t>(anc)].access_doors));
      }
      n.ancestor_matrices = std::span<const DoorMatrixView>(
          ancestor_views_.data() + first, ancestor_views_.size() - first);
    }
  }
  // Mapped arenas replayed the passes as verification: any content mismatch
  // between the mapped ids section and the derived layout is sticky here.
  IFLS_RETURN_NOT_OK(ids_.BackingStatus());
  IFLS_RETURN_NOT_OK(dist_.BackingStatus());
  IFLS_RETURN_NOT_OK(hops_.BackingStatus());
  return Status::OK();
}

void VipTree::FillMatrixRow(const DoorMatrixView& view, DoorId row,
                            const ShortestPaths& paths) {
  const int r = view.RowIndex(row);
  IFLS_DCHECK(r >= 0);
  const std::size_t cols = view.num_cols();
  const std::size_t base =
      static_cast<std::size_t>(view.dist_data() - dist_.data()) +
      static_cast<std::size_t>(r) * cols;
  // First hops share the distance cells' offsets (see allocate_matrix).
  double* dist_row = dist_.mutable_data() + base;
  DoorId* hop_row = hops_.mutable_data() + base;
  const std::span<const DoorId> col_ids = view.cols();
  for (std::size_t c = 0; c < cols; ++c) {
    const auto target = static_cast<std::size_t>(col_ids[c]);
    dist_row[c] = paths.distance[target];
    hop_row[c] = paths.first_hop[target];
  }
}

bool VipTree::NodeContainsPartition(NodeId n, PartitionId p) const {
  const int target_depth = node(n).depth;
  NodeId cur = LeafOf(p);
  while (cur != kInvalidNode && node(cur).depth > target_depth) {
    cur = node(cur).parent;
  }
  return cur == n;
}

std::size_t VipTree::MemoryFootprintBytes() const {
  std::size_t total = sizeof(VipTree);
  total += nodes_.capacity() * sizeof(VipNode);
  total += ids_.MemoryFootprintBytes();
  total += dist_.MemoryFootprintBytes();
  total += hops_.MemoryFootprintBytes();
  total += ancestor_views_.capacity() * sizeof(DoorMatrixView);
  total += leaf_of_partition_.capacity() * sizeof(NodeId);
  // Memoized door distances (conceptually part of the index; the bucket
  // array is mapped up front when the memo is on, and counted whole).
  if (door_cache_ != nullptr) total += door_cache_->MemoryFootprintBytes();
  return total;
}

std::size_t VipTree::MappedFootprintBytes() const {
  return mapping_ != nullptr ? mapping_->size() : 0;
}

VipTreeLayoutStats VipTree::LayoutStats() const {
  VipTreeLayoutStats s;
  s.num_nodes = nodes_.size();
  s.num_leaves = num_leaves_;
  s.id_bytes = ids_.size() * sizeof(std::int32_t);
  s.dist_bytes = dist_.size() * sizeof(double);
  s.hop_bytes = hops_.size() * sizeof(DoorId);
  s.arena_used_bytes = s.id_bytes + s.dist_bytes + s.hop_bytes;
  // capacity() covers both backings (heap reservation or mapped section
  // size), so utilization stays meaningful for mapped trees too.
  s.arena_capacity_bytes = ids_.capacity() * sizeof(std::int32_t) +
                           dist_.capacity() * sizeof(double) +
                           hops_.capacity() * sizeof(DoorId);
  s.mapped_bytes =
      ids_.MappedBytes() + dist_.MappedBytes() + hops_.MappedBytes();
  s.arena_utilization =
      s.arena_capacity_bytes == 0
          ? 1.0
          : static_cast<double>(s.arena_used_bytes) /
                static_cast<double>(s.arena_capacity_bytes);
  s.bytes_per_node = nodes_.empty() ? 0.0
                                    : static_cast<double>(
                                          MemoryFootprintBytes()) /
                                          static_cast<double>(nodes_.size());
  return s;
}

std::string VipTree::ToString() const {
  std::ostringstream os;
  os << (options_.build_leaf_to_ancestor ? "VIP-tree" : "IP-tree") << "{"
     << nodes_.size() << " nodes, " << num_leaves_ << " leaves, height "
     << height_ << ", "
     << MemoryFootprintBytes() / 1024.0 / 1024.0 << " MiB resident"
     << (is_mapped()
             ? ", " + std::to_string(MappedFootprintBytes() / 1024 / 1024) +
                   " MiB mapped"
             : "")
     << "}";
  return os.str();
}

}  // namespace ifls
