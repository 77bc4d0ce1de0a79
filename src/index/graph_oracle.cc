#include "src/index/graph_oracle.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/index/minplus_kernels.h"

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

double GraphDistanceOracle::PointToPoint(const Point& a, PartitionId pa,
                                         const Point& b,
                                         PartitionId pb) const {
  if (pa == pb) return PlanarDistance(a, b);
  const std::vector<DoorId>& doors_b = venue_->partition(pb).doors;
  // Hoist the target-side legs: they are identical for every source door,
  // and PointToDoorDistance is deterministic, so precomputing them keeps
  // every candidate term (leg_a + dist) + leg_b bit-identical to the
  // original nested loop.
  static thread_local std::vector<double> legs_b;
  legs_b.resize(doors_b.size());
  for (std::size_t j = 0; j < doors_b.size(); ++j) {
    legs_b[j] = PointToDoorDistance(b, venue_->door(doors_b[j]));
  }
  double best = kInfDistance;
  for (DoorId d1 : venue_->partition(pa).doors) {
    const double leg_a = PointToDoorDistance(a, venue_->door(d1));
    const ShortestPaths& paths = PathsFrom(d1);
    const double cand =
        kernels::MinPlusGatherAdd(leg_a, paths.distance.data(),
                                  doors_b.data(), legs_b.data(),
                                  doors_b.size());
    CountKernelInvocation();
    if (cand < best) best = cand;
  }
  return best;
}

double GraphDistanceOracle::PointToPartition(const Point& a, PartitionId pa,
                                             PartitionId target) const {
  if (pa == target) return 0.0;
  const std::vector<DoorId>& doors_t = venue_->partition(target).doors;
  double best = kInfDistance;
  for (DoorId d1 : venue_->partition(pa).doors) {
    const double leg = PointToDoorDistance(a, venue_->door(d1));
    const ShortestPaths& paths = PathsFrom(d1);
    const double cand = kernels::MinPlusGather(leg, paths.distance.data(),
                                               doors_t.data(), doors_t.size());
    CountKernelInvocation();
    if (cand < best) best = cand;
  }
  return best;
}

double GraphDistanceOracle::PartitionToPartition(PartitionId p,
                                                 PartitionId q) const {
  if (p == q) return 0.0;
  const std::vector<DoorId>& doors_q = venue_->partition(q).doors;
  double best = kInfDistance;
  for (DoorId d1 : venue_->partition(p).doors) {
    const ShortestPaths& paths = PathsFrom(d1);
    // s = 0.0 is bit-neutral: 0.0 + x == x for every nonnegative distance
    // and for +inf.
    const double cand = kernels::MinPlusGather(0.0, paths.distance.data(),
                                               doors_q.data(), doors_q.size());
    CountKernelInvocation();
    if (cand < best) best = cand;
  }
  return best;
}

}  // namespace ifls
