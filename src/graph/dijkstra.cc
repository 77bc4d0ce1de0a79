#include "src/graph/dijkstra.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace ifls {
namespace {

/// Min-heap order by distance only (matches the former priority_queue's
/// comparator, so equal-distance pops settle in the same order and the
/// reported predecessors are bit-identical).
bool HeapGreater(const DijkstraHeapEntry& a, const DijkstraHeapEntry& b) {
  return a.dist > b.dist;
}

/// The core run, writing into the workspace. std::push_heap/pop_heap over
/// the workspace's vector is exactly what std::priority_queue does
/// internally, minus the per-run container allocation.
void RunDijkstra(const DoorGraph& graph, DoorId source,
                 const std::vector<DoorId>* targets,
                 DijkstraWorkspace* ws) {
  const std::size_t n = graph.num_doors();
  IFLS_CHECK(source >= 0 && static_cast<std::size_t>(source) < n);

  ShortestPaths& out = ws->paths;
  out.distance.assign(n, kInfDistance);
  out.predecessor.assign(n, kInvalidDoor);

  ws->settled.assign(n, 0);
  std::vector<char>& settled = ws->settled;
  std::size_t remaining_targets = 0;
  if (targets != nullptr) {
    ws->is_target.assign(n, 0);
    for (DoorId t : *targets) {
      if (!ws->is_target[static_cast<std::size_t>(t)]) {
        ws->is_target[static_cast<std::size_t>(t)] = 1;
        ++remaining_targets;
      }
    }
  }

  std::vector<DijkstraHeapEntry>& queue = ws->heap;
  queue.clear();
  out.distance[static_cast<std::size_t>(source)] = 0.0;
  queue.push_back({0.0, source});

  while (!queue.empty()) {
    const DijkstraHeapEntry top = queue.front();
    std::pop_heap(queue.begin(), queue.end(), HeapGreater);
    queue.pop_back();
    const std::size_t u = static_cast<std::size_t>(top.door);
    if (settled[u]) continue;
    settled[u] = 1;
    if (targets != nullptr && ws->is_target[u]) {
      if (--remaining_targets == 0) break;
    }
    for (const DoorGraph::Edge* e = graph.EdgesBegin(top.door);
         e != graph.EdgesEnd(top.door); ++e) {
      const std::size_t v = static_cast<std::size_t>(e->to);
      const double cand = top.dist + e->weight;
      if (cand < out.distance[v]) {
        out.distance[v] = cand;
        out.predecessor[v] = top.door;
        queue.push_back({cand, e->to});
        std::push_heap(queue.begin(), queue.end(), HeapGreater);
      }
    }
  }
}

}  // namespace

ShortestPaths SingleSourceShortestPaths(const DoorGraph& graph,
                                        DoorId source) {
  DijkstraWorkspace ws;
  RunDijkstra(graph, source, nullptr, &ws);
  return std::move(ws.paths);
}

ShortestPaths ShortestPathsToTargets(const DoorGraph& graph, DoorId source,
                                     const std::vector<DoorId>& targets) {
  DijkstraWorkspace ws;
  RunDijkstra(graph, source, &targets, &ws);
  return std::move(ws.paths);
}

const ShortestPaths& SingleSourceShortestPaths(const DoorGraph& graph,
                                               DoorId source,
                                               DijkstraWorkspace* workspace) {
  RunDijkstra(graph, source, nullptr, workspace);
  return workspace->paths;
}

const ShortestPaths& ShortestPathsToTargets(
    const DoorGraph& graph, DoorId source,
    const std::vector<DoorId>& targets, DijkstraWorkspace* workspace) {
  RunDijkstra(graph, source, &targets, workspace);
  return workspace->paths;
}

std::vector<DoorId> ReconstructPath(const ShortestPaths& paths, DoorId source,
                                    DoorId target) {
  std::vector<DoorId> path;
  if (target < 0 ||
      static_cast<std::size_t>(target) >= paths.distance.size() ||
      paths.distance[static_cast<std::size_t>(target)] == kInfDistance) {
    return path;
  }
  for (DoorId cur = target; cur != kInvalidDoor;
       cur = paths.predecessor[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
    if (cur == source) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.empty() || path.front() != source) return {};
  return path;
}

}  // namespace ifls
