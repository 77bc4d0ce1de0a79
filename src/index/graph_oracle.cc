#include "src/index/graph_oracle.h"

#include "src/common/logging.h"
#include "src/common/trace.h"

namespace ifls {

GraphDistanceOracle::GraphDistanceOracle(const Venue* venue)
    : venue_(venue), graph_(*venue), cache_(venue->num_doors()) {
  IFLS_CHECK(venue != nullptr);
}

const ShortestPaths& GraphDistanceOracle::PathsFrom(DoorId source) const {
  CacheSlot& slot = cache_[static_cast<std::size_t>(source)];
  std::call_once(slot.once, [&] {
    // Named span: a full single-source Dijkstra means the distance request
    // fell through every cheaper path — exactly the "why was this query
    // slow" signal traces exist for.
    TraceSpan trace_span(TraceCategory::kOracle, "dijkstra_fallback");
    CountDijkstraFallback();
    WorkspacePool<DijkstraWorkspace>::Lease ws = workspaces_.Acquire();
    // Copy out of the workspace: the slot needs exact-size persistent
    // storage while the workspace's buffers go back to the pool.
    slot.paths = std::make_unique<ShortestPaths>(
        SingleSourceShortestPaths(graph_, source, ws.get()));
    num_runs_.fetch_add(1, std::memory_order_relaxed);
  });
  return *slot.paths;
}

double GraphDistanceOracle::DoorToDoor(DoorId a, DoorId b) const {
  if (a == b) return 0.0;
  BumpDoorDistanceEvals();
  return PathsFrom(a).distance[static_cast<std::size_t>(b)];
}

}  // namespace ifls
