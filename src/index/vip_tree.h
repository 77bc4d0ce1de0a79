#ifndef IFLS_INDEX_VIP_TREE_H_
#define IFLS_INDEX_VIP_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/concurrent_cache.h"
#include "src/common/logging.h"
#include "src/common/mapped_file.h"
#include "src/common/status.h"
#include "src/index/distance_memo.h"
#include "src/index/distance_oracle.h"
#include "src/index/door_matrix.h"
#include "src/indoor/venue.h"

namespace ifls {

/// Build parameters for IP-tree / VIP-tree construction.
struct VipTreeOptions {
  /// Maximum partitions merged into one leaf node.
  int leaf_capacity = 8;
  /// Maximum children per internal node. The default lets a typical floor's
  /// leaves merge into one node, leaving only stair doors as access doors.
  int internal_fanout = 8;
  /// When true (VIP-tree), leaves additionally materialize door-to-ancestor-
  /// access-door matrices; when false (IP-tree), those distances are composed
  /// through the node chain at query time.
  bool build_leaf_to_ancestor = true;
  /// Worker threads for the matrix-building Dijkstra sweep (one global run
  /// per door; each door writes its own disjoint matrix rows, so the built
  /// index is bit-identical for any thread count) and for the iMinD(p, n)
  /// table SaveV3ToFile composes (one chunk of door rows per thread).
  /// <= 0 uses all hardware threads; 1 keeps the build single-threaded.
  int build_threads = 0;
  /// Memoize DoorToDoor results and the partition-level distances
  /// (PartitionToNode on heap-built trees, which mapped trees read from
  /// their image instead; PartitionToPartition; DoorToPartition) in a hash
  /// table owned by the index (the door-graph distances are static, so the
  /// cache is conceptually part of the materialized index, like Yang et
  /// al.'s door-to-door hash table). Sized from the venue; a venue whose
  /// memo keys overflow 32 bits runs without it (DESIGN §9.2).
  /// OFF by default: the paper's cost model recomputes matrix compositions
  /// per iDist call, and the redundancy across clients of one partition is
  /// precisely what the efficient approach's grouping exploits — a global
  /// memo would hand that advantage to the baseline too. The ablation bench
  /// measures the memoized configuration separately.
  bool enable_door_distance_cache = false;
};

/// One tree node. Leaves own a contiguous group of adjacent partitions;
/// internal nodes own adjacent child nodes. In the IFLS algorithms the
/// "children" of a leaf are its partitions (paper Algorithm 3 line 19).
///
/// Flat layout: every variable-length payload — id lists, index maps, and
/// all matrix cells — lives in the owning tree's contiguous arena buffers;
/// the node only carries spans/views into them. Nodes are therefore small,
/// trivially copyable descriptors, and a traversal touching many nodes walks
/// a handful of contiguous allocations instead of chasing per-node heap
/// pointers.
struct VipNode {
  NodeId id = kInvalidNode;
  NodeId parent = kInvalidNode;
  /// Root has depth 0.
  int depth = 0;
  /// Number of partitions in the subtree (leaf: partitions.size()).
  std::int32_t subtree_partitions = 0;
  /// Child node ids; empty for leaves.
  std::span<const NodeId> children;
  /// Partitions directly owned (leaves only).
  std::span<const PartitionId> partitions;
  /// Door universe of this node, sorted: leaf = every door incident to an
  /// owned partition; internal = union of children's access doors.
  std::span<const DoorId> doors;
  /// Doors with exactly one side inside this node's partition set, sorted.
  /// Empty for the root of a closed venue.
  std::span<const DoorId> access_doors;
  /// Global shortest distances over `doors` x `doors` (cells in the arena).
  DoorMatrixView matrix;
  /// VIP extension (leaves only): ancestor_matrices[k] has rows = this
  /// leaf's doors and cols = access doors of the k-th ancestor
  /// (k = 0 -> parent, k = depth-1 -> root).
  std::span<const DoorMatrixView> ancestor_matrices;
  /// Positions of `access_doors[i]` within `doors` (hence within `matrix`
  /// rows/cols). Precomputed so query-time composition needs no searches.
  std::span<const std::int32_t> access_door_idx;

  bool is_leaf() const { return children.empty(); }

  /// Internal nodes: child_access_idx(i)[j] = position of
  /// children[i]'s access_doors[j] within `doors`. Stored flattened:
  /// `child_access_off_` holds children.size()+1 prefix offsets into
  /// `child_access_flat_`.
  std::span<const std::int32_t> child_access_idx(std::size_t i) const {
    const auto begin = static_cast<std::size_t>(child_access_off_[i]);
    const auto end = static_cast<std::size_t>(child_access_off_[i + 1]);
    return child_access_flat_.subspan(begin, end - begin);
  }

  // Flat backing for child_access_idx (treat as private to the tree).
  std::span<const std::int32_t> child_access_off_;
  std::span<const std::int32_t> child_access_flat_;
};

/// Transient structural description of a tree: plain per-node vectors, as
/// produced by the build clustering phase or sliced out of a v3 snapshot's
/// ids section, before conversion into the flat arena layout. Internal API
/// shared by vip_tree.cc and vip_tree_io_v3.cc.
struct VipTreeStructure {
  struct Node {
    NodeId id = kInvalidNode;
    NodeId parent = kInvalidNode;
    std::vector<NodeId> children;
    std::vector<PartitionId> partitions;
    std::vector<DoorId> doors;
    std::vector<DoorId> access_doors;

    bool is_leaf() const { return children.empty(); }
  };
  std::vector<Node> nodes;
};

/// Size/utilization report of the flat layout (bench_index_micro).
struct VipTreeLayoutStats {
  std::size_t num_nodes = 0;
  std::size_t num_leaves = 0;
  /// Used bytes per arena.
  std::size_t id_bytes = 0;
  std::size_t dist_bytes = 0;
  /// Used / reserved bytes across all arenas (reservation is exact, so
  /// utilization is 1.0 unless a layout bug under-fills).
  std::size_t arena_used_bytes = 0;
  std::size_t arena_capacity_bytes = 0;
  double arena_utilization = 1.0;
  /// Total index bytes (MemoryFootprintBytes) divided by node count.
  double bytes_per_node = 0.0;
  /// File-mapped arena bytes (0 for heap-backed trees). Counted in
  /// arena_capacity_bytes but not in MemoryFootprintBytes: dropping a
  /// mapped tree frees only its resident descriptors, the page cache keeps
  /// these bytes warm.
  std::size_t mapped_bytes = 0;
};

/// The VIP-tree (Shao et al., PVLDB'16): a bottom-up hierarchical
/// partitioning of an indoor venue with materialized door-to-door distance
/// matrices, supporting O(small) indoor distance queries without graph
/// expansion. With `build_leaf_to_ancestor = false` this degrades to the
/// IP-tree. Matrices are built with *global* Dijkstra runs so every distance
/// the tree returns is exactly the door-graph shortest distance (see
/// DESIGN.md §3.2).
///
/// This is the materialized DistanceOracle backend: solvers consume it
/// through the interface, while the v3 snapshot I/O, path reconstruction and
/// the benches may use the concrete structure below. The tree stores
/// distances only; the one persisted form of the index is the v3 snapshot
/// (vip_tree_io_v3.h).
///
/// Thread-safety: after Build/LoadV3FromFile, every distance/structure
/// accessor is a read-only path safe to call from any number of threads
/// concurrently — counters go to per-thread sinks or the atomic aggregate,
/// and the door memo (when enabled) is a lock-free bucketed cache
/// (ConcurrentDoorCache), so query threads never serialize on it. Only
/// Build/SaveV3ToFile/LoadV3FromFile and moves require external
/// exclusivity.
///
/// Final, so calls to LeafOf() and the other overrides inside the tree's
/// own distance paths bind statically.
class VipTree final : public DistanceOracle {
 public:
  /// Builds the index over `venue`. The venue must outlive the tree.
  static Result<VipTree> Build(const Venue* venue, VipTreeOptions options = {});

  VipTree(VipTree&& other) noexcept;
  VipTree& operator=(VipTree&& other) noexcept;

  const Venue& venue() const override { return *venue_; }
  const VipTreeOptions& options() const { return options_; }

  // ---- Structure -----------------------------------------------------

  NodeId root() const override { return root_; }
  std::size_t num_nodes() const override { return nodes_.size(); }
  std::size_t num_leaves() const { return num_leaves_; }
  int height() const { return height_; }
  const VipNode& node(NodeId id) const {
    IFLS_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size())
        << "node id " << id << " out of range";
    return nodes_[static_cast<std::size_t>(id)];
  }

  bool IsLeaf(NodeId n) const override { return node(n).is_leaf(); }
  NodeId Parent(NodeId n) const override { return node(n).parent; }
  std::span<const NodeId> Children(NodeId n) const override {
    return node(n).children;
  }
  std::span<const PartitionId> NodePartitions(NodeId n) const override {
    return node(n).partitions;
  }

  /// Leaf node owning partition `p`.
  NodeId LeafOf(PartitionId p) const override {
    IFLS_CHECK(p >= 0 &&
               static_cast<std::size_t>(p) < leaf_of_partition_.size());
    return leaf_of_partition_[static_cast<std::size_t>(p)];
  }

  /// True when partition `p` lies inside node `n`'s subtree.
  bool NodeContainsPartition(NodeId n, PartitionId p) const override;

  // ---- Distances (implemented in vip_distance.cc) ---------------------
  // PointToDoor is inherited from DistanceOracle: its composition over
  // DoorToDoor is the generic one.

  // Every distance below is a minimum over the door-set composer's terms
  // (DoorTerms, DESIGN §3.1), bit for bit the per-pair minimum of
  // DoorToDoor it defines.

  /// Exact global door-to-door walking distance, composed from the stored
  /// matrices (leaf lookup, or leaf->LCA-access-door->leaf composition).
  double DoorToDoor(DoorId a, DoorId b) const override;

  /// Exact indoor distance from a point to the nearest reachable boundary of
  /// partition `target` (paper iDist(c, p)); 0 when pa == target. The min
  /// over doors(pa) of the local leg plus DoorToPartition, so a memoized
  /// door-to-partition distance serves every point behind that door (the
  /// paper's §5.3.1 Case 1 for single-door partitions).
  double PointToPartition(const Point& a, PartitionId pa,
                          PartitionId target) const override;

  /// Exact indoor distance between two points (paper iDist(a, b)): the
  /// planar distance inside one partition, else the min over doors(pa) x
  /// doors(pb) of leg_a + DoorToDoor + leg_b, with one DoorTerms call per
  /// door of pa toward doors(pb). Bit for bit the generic per-pair loop.
  double PointToPoint(const Point& a, PartitionId pa, const Point& b,
                      PartitionId pb) const override;

  /// Shortest distance from door `d` to the nearest door of `target`: the
  /// min over {d} x doors(target) of DoorToDoor.
  double DoorToPartition(DoorId d, PartitionId target) const override;

  /// Paper iMinD(p, q) with q a partition: 0 when p == q, else the min over
  /// doors(p) x doors(q) of DoorToDoor.
  double PartitionToPartition(PartitionId p, PartitionId q) const override;

  /// Paper iMinD(p, I) with I a tree node: 0 when the node contains p, else
  /// min over doors(p) x access_doors(n) of DoorToDoor. A mapped tree
  /// reads it from the image's P x N table in one cell read; a heap-built
  /// tree composes it.
  ///
  /// With the door cache enabled, DoorToDoor and these three are memoized
  /// under their own kind of key (DistanceMemoKeySpace) wherever they are
  /// composed, so PartitionToNode uses the memo on heap-built trees only.
  double PartitionToNode(PartitionId p, NodeId n) const override;

  /// Lower bound used by top-down NN: distance from a concrete point to the
  /// nearest access door of node `n` (0 when the node contains pa); the min
  /// over doors(pa) of the local leg plus the composed {d1} x AD(n) minimum.
  double PointToNode(const Point& a, PartitionId pa, NodeId n) const override;

  // ---- Serialization (vip_tree_io_v3.cc) ---------------------------------

  /// Writes the complete index in the binary snapshot format v3
  /// (page-aligned, checksummed, directly mappable; see vip_tree_io_v3.h),
  /// including the iMinD(p, n) table, which a heap-built tree composes here
  /// on its build threads. Deterministic and backing-agnostic: heap-built
  /// and mapped trees of the same index serialize byte-identically, for
  /// any thread count.
  Status SaveV3ToFile(const std::string& path) const;

  /// Maps a format-v3 snapshot: validates magic/version/checksums/venue,
  /// adopts the payload sections as read-only mapped arenas, and replays
  /// the layout pass as a descriptor fixup that re-derives and verifies
  /// every span; PartitionToNode then reads the mapped iMinD(p, n) table.
  /// All corruption modes (short map, bad magic, checksum mismatch,
  /// truncated descriptor table, payload/structure disagreement, a table of
  /// the wrong shape or with NaN or negative cells) surface as proper
  /// Status errors.
  static Result<VipTree> LoadV3FromFile(const Venue* venue,
                                        const std::string& path);

  // ---- Introspection ---------------------------------------------------

  /// Drops all memoized door distances (only meaningful when the cache is
  /// enabled). Call between runs that must not share warm state.
  void ClearDistanceCache() const;
  std::size_t distance_cache_size() const;

  /// Occupancy/eviction/capacity gauges of the door-distance memo (zero
  /// when the memo is off).
  ConcurrentDoorCache::Stats door_cache_stats() const;

  /// Resident heap bytes held by arenas, node descriptors and auxiliary
  /// tables. For a mapped tree this is only the descriptor/fixup state (and
  /// the door cache when enabled) — the payload bytes live in the page
  /// cache and are reported by MappedFootprintBytes(). Eviction budgets use
  /// this value: it is what dropping the tree actually frees.
  std::size_t MemoryFootprintBytes() const;

  /// File-mapped bytes kept alive by this tree (0 for heap-backed trees).
  std::size_t MappedFootprintBytes() const;

  /// True when the arenas view an mmap-ed snapshot instead of the heap.
  bool is_mapped() const { return mapping_ != nullptr; }

  /// Arena sizes and utilization of the flat layout.
  VipTreeLayoutStats LayoutStats() const;

  std::string ToString() const;

 private:
  VipTree() = default;

  /// Converts a validated-on-the-fly structural description into the flat
  /// arena layout: derives depths, height, leaf-of-partition and index maps
  /// (returning InvalidArgument on inconsistencies), computes exact arena
  /// totals, and lays out every id list and matrix payload (distances
  /// initialized to kInfDistance) in deterministic order — node id
  /// ascending; per node the main matrix then ancestor matrices
  /// k = 0..depth-1. Shared by Build, which then fills the payload cells in
  /// place, and LoadV3FromFile, whose mapped arenas verify the replayed
  /// layout instead.
  Status InitFromStructure(const VipTreeStructure& structure);

  /// A node's sorted door universe and its access doors (the doors with
  /// exactly one side inside the node's subtree).
  struct NodeDoors {
    std::vector<DoorId> doors;
    std::vector<DoorId> access_doors;
  };

  /// Derives node `id`'s door sets from the venue: a leaf's doors are its
  /// partitions' doors, an internal node's are its children's access doors
  /// (read from `structure`), and `contains(node, p)` decides subtree
  /// membership. Build fills its structure with it; LoadV3FromFile checks a
  /// snapshot's door sets against it.
  static NodeDoors DeriveNodeDoors(
      const Venue& venue, const VipTreeStructure& structure, NodeId id,
      const std::function<bool(NodeId, PartitionId)>& contains);

  /// Worker threads of the matrix build and of the iMinD(p, n) table fill:
  /// options_.build_threads, or all hardware threads when <= 0.
  int BuildThreads() const;

  /// Fills matrix row `row` of `view` (which must alias this tree's arenas)
  /// from a completed single-source run.
  void FillMatrixRow(const DoorMatrixView& view, DoorId row,
                     const ShortestPaths& paths);

  /// Distances from door `a` (incident to leaf `leaf`) to every access door
  /// of `ancestor`, aligned with that node's access_doors. VIP mode returns
  /// the row of the materialized leaf->ancestor matrix in place; for
  /// `ancestor == leaf`, and in IP mode, the distances are gathered and
  /// composed along the node chain into `*scratch`, which the result views.
  std::span<const double> AncestorAccessDistances(
      DoorId a, NodeId leaf, NodeId ancestor,
      std::vector<double>* scratch) const;

  /// Target doors of a composition and the rows DoorTerms reuses across
  /// home doors (defined in vip_distance.cc).
  struct TargetSet;

  /// The one door-term routine: terms[j] = DoorToDoor(d1, t_j) for every
  /// target t_j of `set`, bit for bit, without the memo. A target in one of
  /// d1's leaves reads the leaf cell; the others cost one LCA row composed
  /// per home door and LCA child pair, and one pairwise reduce each
  /// (DESIGN §3.1).
  void DoorTerms(DoorId d1, TargetSet* set, std::span<double> terms) const;

  /// The min over home_doors x targets of DoorTerms. Serves DoorToDoor,
  /// DoorToPartition, PartitionToPartition, PartitionToNode and PointToNode.
  double ComposeDoorSets(std::span<const DoorId> home_doors,
                         std::span<const DoorId> targets) const;

  /// The P x N iMinD(p, n) table the v3 image persists, row-major: 0 where
  /// node n contains partition p, else ComposeDoorSets(doors(p), AD(n)) bit
  /// for bit. Every door's DoorTerms toward every access door, reduced per
  /// node and then per partition, on BuildThreads() workers (DESIGN §7.3).
  std::vector<double> ComposePartitionToNodeTable() const;

  /// ComposeDoorSets behind the memo entry (kind, from, to) when the memo
  /// is on.
  double MemoizedDoorSets(DistanceMemoKind kind, std::int32_t from,
                          std::int32_t to, std::span<const DoorId> home_doors,
                          std::span<const DoorId> targets) const;

  const Venue* venue_ = nullptr;
  VipTreeOptions options_;

  /// Flat storage. All id-typed payloads (NodeId/PartitionId/DoorId and
  /// int32 index maps share the same representation) live in `ids_`; matrix
  /// distances in `dist_`. Spans and views in nodes_
  /// point into these buffers — reservation is exact and up front, so the
  /// pointers are stable for the tree's lifetime and across moves.
  ArenaBuffer<std::int32_t> ids_;
  ArenaBuffer<double> dist_;
  /// Per-leaf ancestor matrix views, concatenated in node order; each
  /// leaf's `ancestor_matrices` spans a slice of this vector.
  std::vector<DoorMatrixView> ancestor_views_;

  std::vector<VipNode> nodes_;
  std::vector<NodeId> leaf_of_partition_;
  NodeId root_ = kInvalidNode;
  std::size_t num_leaves_ = 0;
  int height_ = 0;
  /// The door memo, null when it is off. Keys are memo_keys_ ranks; door-
  /// pair keys are per orientation, since the two orientations'
  /// compositions may differ in the last ULP and the cache must never
  /// change a bit. Held behind a pointer so the tree stays movable.
  mutable std::unique_ptr<ConcurrentDoorCache> door_cache_;
  DistanceMemoKeySpace memo_keys_{0, 0, 0};
  /// Mapped trees: the image's iMinD(p, n) table (num_partitions x
  /// num_nodes doubles, row-major) that serves PartitionToNode; null for
  /// heap-built trees.
  const double* partition_to_node_ = nullptr;
  /// Keeps the v3 snapshot mapping alive while arenas view it; null for
  /// heap-backed trees. Shared so future readers of the same file could
  /// share one mapping.
  std::shared_ptr<const MappedFile> mapping_;
};

}  // namespace ifls

#endif  // IFLS_INDEX_VIP_TREE_H_
