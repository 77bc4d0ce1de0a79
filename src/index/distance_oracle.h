#ifndef IFLS_INDEX_DISTANCE_ORACLE_H_
#define IFLS_INDEX_DISTANCE_ORACLE_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "src/graph/dijkstra.h"
#include "src/indoor/venue.h"

namespace ifls {

using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Counters an oracle updates on its own query paths; algorithms attribute
/// index work per query by installing a ScopedOracleCounterSink.
struct OracleCounters {
  std::uint64_t door_distance_evals = 0;  // door-pair distances evaluated
  std::uint64_t matrix_lookups = 0;       // individual matrix cell reads
  std::uint64_t cache_hits = 0;           // memoized DoorToDoor/bound answers
  std::uint64_t cache_misses = 0;         // memo lookups that fell through
  std::uint64_t kernel_invocations = 0;   // blocked min-plus kernel calls
  std::uint64_t dijkstra_fallbacks = 0;   // full graph expansions run
};

/// Routes the calling thread's oracle counter updates (for every oracle)
/// into `sink` for the scope's lifetime; restores the previous sink on
/// destruction. Scopes nest, mirroring ScopedMemoryTracking.
///
/// This is the only counter path: parallel queries get contention-free,
/// exactly-attributed per-query counts, and work done on a thread without a
/// sink is not counted at all.
class ScopedOracleCounterSink {
 public:
  explicit ScopedOracleCounterSink(OracleCounters* sink);
  ~ScopedOracleCounterSink();

  ScopedOracleCounterSink(const ScopedOracleCounterSink&) = delete;
  ScopedOracleCounterSink& operator=(const ScopedOracleCounterSink&) = delete;

 private:
  OracleCounters* previous_;
};

/// Counts `n` blocked min-plus kernel invocations on the calling thread's
/// sink, if any. A free function because kernel call sites (vip_distance,
/// path, graph_oracle, solver hot loops) do not all flow through a
/// DistanceOracle instance.
void CountKernelInvocation(std::uint64_t n = 1);
/// Counts one full-graph Dijkstra fallback (graph oracle miss path).
void CountDijkstraFallback();

/// Uniform indoor-distance interface every solver consumes, so index
/// backends (materialized VIP-tree, memoized graph oracle, per-call brute
/// force, future sharded/cached/remote backends) are interchangeable without
/// touching solver code.
///
/// Two method families:
///  * Distances — exact indoor walking distances between doors, points and
///    partitions. Only DoorToDoor is pure; the point/partition variants have
///    default implementations composed from it that match the paper's iDist
///    definitions (identical loop structure and pruning to the reference
///    VIP-tree implementation, so answers and tie-breaks agree bit-for-bit
///    across backends that share door-to-door distances).
///  * Hierarchy — the node tree the efficient algorithm and NN search
///    traverse. Backends without a materialized hierarchy inherit a
///    degenerate single-node view: one root "leaf" (id 0) containing every
///    partition, which makes hierarchical solvers fall back to scanning —
///    correct, just unpruned.
///
/// Thread-safety contract: all const methods must be safe for concurrent
/// callers after construction. Counter updates go to the calling thread's
/// sink when one is installed.
class DistanceOracle {
 public:
  virtual ~DistanceOracle();

  DistanceOracle(const DistanceOracle&) = delete;
  DistanceOracle& operator=(const DistanceOracle&) = delete;

  virtual const Venue& venue() const = 0;

  // ---- Distances -------------------------------------------------------

  /// Global shortest walking distance between two doors. The one primitive
  /// every backend must provide.
  virtual double DoorToDoor(DoorId a, DoorId b) const = 0;

  /// Exact walking distance from a point in partition `pa` to door `d`.
  virtual double PointToDoor(const Point& a, PartitionId pa, DoorId d) const;

  /// Exact indoor distance between two points (paper iDist for two points).
  virtual double PointToPoint(const Point& a, PartitionId pa, const Point& b,
                              PartitionId pb) const;

  /// Exact indoor distance from a point to the nearest reachable boundary of
  /// partition `target` (paper iDist(c, p)); 0 when pa == target.
  virtual double PointToPartition(const Point& a, PartitionId pa,
                                  PartitionId target) const;

  /// Shortest walking distance from door `d` to the nearest door of
  /// partition `target`. Algorithms cache this per (door, partition) to
  /// serve every client of a single-door partition with one lookup.
  virtual double DoorToPartition(DoorId d, PartitionId target) const;

  /// Paper iMinD(p, I) with I a partition: door-set to door-set shortest
  /// distance, zero intra-partition offsets; 0 when p == q.
  virtual double PartitionToPartition(PartitionId p, PartitionId q) const;

  // ---- Hierarchy -------------------------------------------------------

  virtual NodeId root() const;
  virtual std::size_t num_nodes() const;
  virtual bool IsLeaf(NodeId n) const;
  virtual NodeId Parent(NodeId n) const;

  /// Leaf node owning partition `p`.
  virtual NodeId LeafOf(PartitionId p) const;

  /// Child node ids of an internal node; empty for leaves.
  virtual std::span<const NodeId> Children(NodeId n) const;

  /// Partitions directly owned by a leaf; empty for internal nodes.
  virtual std::span<const PartitionId> NodePartitions(NodeId n) const;

  /// True when partition `p` lies inside node `n`'s subtree.
  virtual bool NodeContainsPartition(NodeId n, PartitionId p) const;

  /// Paper iMinD(p, I) with I a tree node: 0 when the node contains p, else
  /// min over doors(p) x access_doors(n).
  virtual double PartitionToNode(PartitionId p, NodeId n) const;

  /// Lower bound used by top-down NN: distance from a concrete point to the
  /// nearest access door of node `n` (0 when the node contains pa).
  virtual double PointToNode(const Point& a, PartitionId pa, NodeId n) const;

 protected:
  DistanceOracle() = default;

  // Counter update helpers (hot paths): bump the calling thread's sink when
  // one is installed.
  void BumpDoorDistanceEvals(std::uint64_t n = 1) const;
  void BumpMatrixLookups(std::uint64_t n) const;
  void BumpCacheHits() const;
  void BumpCacheMisses() const;

 private:
  /// Identity partition list backing the single-node hierarchy default;
  /// built on first NodePartitions() call.
  const std::vector<PartitionId>& FlatPartitions() const;

  mutable std::once_flag flat_partitions_once_;
  mutable std::vector<PartitionId> flat_partitions_;
};

}  // namespace ifls

#endif  // IFLS_INDEX_DISTANCE_ORACLE_H_
