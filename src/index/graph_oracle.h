#ifndef IFLS_INDEX_GRAPH_ORACLE_H_
#define IFLS_INDEX_GRAPH_ORACLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/workspace_pool.h"
#include "src/graph/dijkstra.h"
#include "src/graph/door_graph.h"
#include "src/index/distance_oracle.h"
#include "src/indoor/venue.h"

namespace ifls {

/// Exact indoor-distance oracle answering straight from the door graph, with
/// lazily memoized single-source Dijkstra runs (one per queried source
/// door). Serves three roles: ground truth the VIP-tree is tested against,
/// the "no index" comparator in the micro benchmarks, and the memoized
/// DistanceOracle backend (solvers run against it unchanged, minus the
/// hierarchy pruning a materialized tree provides).
///
/// Thread-safe: concurrent queries may share one oracle. Each source door's
/// Dijkstra run is computed exactly once (std::call_once per cache slot);
/// runs for distinct sources proceed in parallel, each on a pooled
/// workspace. Memoized slots are immutable after publication, so the read
/// path is lock-free; DoorToDoor is one read of the source door's row.
class GraphDistanceOracle : public DistanceOracle {
 public:
  explicit GraphDistanceOracle(const Venue* venue);

  const Venue& venue() const override { return *venue_; }

  /// Global shortest walking distance between two doors. The point and
  /// partition distances are the interface's generic loops over it.
  double DoorToDoor(DoorId a, DoorId b) const override;

  /// Number of Dijkstra runs performed so far (memoization hit rate probe).
  std::size_t num_sssp_runs() const {
    return num_runs_.load(std::memory_order_relaxed);
  }

 private:
  /// One memoized source door. `once` guarantees a single compute even
  /// under a concurrent stampede; `paths` is written exactly once.
  struct CacheSlot {
    std::once_flag once;
    std::unique_ptr<ShortestPaths> paths;
  };

  const ShortestPaths& PathsFrom(DoorId source) const;

  const Venue* venue_;
  DoorGraph graph_;
  mutable std::vector<CacheSlot> cache_;  // fixed size, slots never move
  mutable WorkspacePool<DijkstraWorkspace> workspaces_;
  mutable std::atomic<std::size_t> num_runs_{0};
};

}  // namespace ifls

#endif  // IFLS_INDEX_GRAPH_ORACLE_H_
