#ifndef IFLS_GRAPH_DIJKSTRA_H_
#define IFLS_GRAPH_DIJKSTRA_H_

#include <limits>
#include <vector>

#include "src/graph/door_graph.h"

namespace ifls {

inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// Result of a single-source shortest-path run over the door graph.
struct ShortestPaths {
  /// distance[d] = shortest walking distance source -> d; kInfDistance when
  /// unreachable.
  std::vector<double> distance;
  /// predecessor[d] = previous door on the shortest path (kInvalidDoor for
  /// source/unreachable). Enables full path reconstruction.
  std::vector<DoorId> predecessor;
};

/// Binary-heap entry of a Dijkstra run. Ordered by distance only, exactly
/// like the original std::priority_queue-based implementation, so tie
/// handling (and therefore predecessor choices) is unchanged.
struct DijkstraHeapEntry {
  double dist = 0.0;
  DoorId door = kInvalidDoor;
};

/// Reusable output + scratch buffers for Dijkstra runs. One workspace per
/// worker thread (hand them out with WorkspacePool) makes repeated runs
/// allocation-free after warmup: every vector keeps its capacity between
/// runs. A workspace must not be shared by concurrent runs.
struct DijkstraWorkspace {
  /// Output of the most recent run through this workspace.
  ShortestPaths paths;
  std::vector<char> settled;
  std::vector<char> is_target;
  std::vector<DijkstraHeapEntry> heap;
};

/// Full single-source Dijkstra from `source` over all doors.
ShortestPaths SingleSourceShortestPaths(const DoorGraph& graph, DoorId source);

/// Dijkstra that stops once every door in `targets` is settled (or the
/// frontier is exhausted). Useful for sparse matrix rows.
ShortestPaths ShortestPathsToTargets(const DoorGraph& graph, DoorId source,
                                     const std::vector<DoorId>& targets);

/// Workspace-reusing variants: identical results, but the run borrows the
/// workspace's buffers and returns a reference to `workspace->paths`
/// (invalidated by the workspace's next run).
const ShortestPaths& SingleSourceShortestPaths(const DoorGraph& graph,
                                               DoorId source,
                                               DijkstraWorkspace* workspace);
const ShortestPaths& ShortestPathsToTargets(const DoorGraph& graph,
                                            DoorId source,
                                            const std::vector<DoorId>& targets,
                                            DijkstraWorkspace* workspace);

/// Reconstructs the door sequence source -> target (inclusive) from a
/// ShortestPaths result; empty when unreachable.
std::vector<DoorId> ReconstructPath(const ShortestPaths& paths, DoorId source,
                                    DoorId target);

}  // namespace ifls

#endif  // IFLS_GRAPH_DIJKSTRA_H_
