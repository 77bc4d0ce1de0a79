#include "src/index/distance_oracle.h"

#include "src/graph/dijkstra.h"

namespace ifls {

namespace {
thread_local OracleCounters* g_counter_sink = nullptr;
}  // namespace

ScopedOracleCounterSink::ScopedOracleCounterSink(OracleCounters* sink)
    : previous_(g_counter_sink) {
  g_counter_sink = sink;
}

ScopedOracleCounterSink::~ScopedOracleCounterSink() {
  g_counter_sink = previous_;
}

void CountKernelInvocation(std::uint64_t n) {
  if (OracleCounters* sink = g_counter_sink) sink->kernel_invocations += n;
}

void CountDijkstraFallback() {
  if (OracleCounters* sink = g_counter_sink) ++sink->dijkstra_fallbacks;
}

DistanceOracle::~DistanceOracle() = default;

// ---------------------------------------------------------------- counters

void DistanceOracle::BumpDoorDistanceEvals(std::uint64_t n) const {
  if (OracleCounters* sink = g_counter_sink) sink->door_distance_evals += n;
}

void DistanceOracle::BumpMatrixLookups(std::uint64_t n) const {
  if (OracleCounters* sink = g_counter_sink) sink->matrix_lookups += n;
}

void DistanceOracle::BumpCacheHits() const {
  if (OracleCounters* sink = g_counter_sink) ++sink->cache_hits;
}

void DistanceOracle::BumpCacheMisses() const {
  if (OracleCounters* sink = g_counter_sink) ++sink->cache_misses;
}

// ------------------------------------------------- default distance paths
// These mirror the reference VIP-tree composition loops exactly (same
// iteration order, same `leg >= best` pruning), so any backend whose
// DoorToDoor agrees with the door-graph shortest distances produces
// bit-identical point/partition distances and tie-breaks.

double DistanceOracle::PointToDoor(const Point& a, PartitionId pa,
                                   DoorId d) const {
  const Venue& v = venue();
  const Partition& part = v.partition(pa);
  double best = kInfDistance;
  for (DoorId d1 : part.doors) {
    const double leg = PointToDoorDistance(a, v.door(d1));
    if (leg >= best) continue;
    const double cand = leg + DoorToDoor(d1, d);
    if (cand < best) best = cand;
  }
  return best;
}

double DistanceOracle::PointToPoint(const Point& a, PartitionId pa,
                                    const Point& b, PartitionId pb) const {
  if (pa == pb) return PlanarDistance(a, b);
  const Venue& v = venue();
  const Partition& part_a = v.partition(pa);
  const Partition& part_b = v.partition(pb);
  double best = kInfDistance;
  for (DoorId d1 : part_a.doors) {
    const double leg_a = PointToDoorDistance(a, v.door(d1));
    if (leg_a >= best) continue;
    for (DoorId d2 : part_b.doors) {
      const double leg_b = PointToDoorDistance(b, v.door(d2));
      if (leg_a + leg_b >= best) continue;
      const double cand = leg_a + DoorToDoor(d1, d2) + leg_b;
      if (cand < best) best = cand;
    }
  }
  return best;
}

double DistanceOracle::PointToPartition(const Point& a, PartitionId pa,
                                        PartitionId target) const {
  if (pa == target) return 0.0;
  const Venue& v = venue();
  const Partition& part_a = v.partition(pa);
  const Partition& part_t = v.partition(target);
  double best = kInfDistance;
  for (DoorId d1 : part_a.doors) {
    const double leg = PointToDoorDistance(a, v.door(d1));
    if (leg >= best) continue;
    for (DoorId d2 : part_t.doors) {
      const double cand = leg + DoorToDoor(d1, d2);
      if (cand < best) best = cand;
    }
  }
  return best;
}

double DistanceOracle::DoorToPartition(DoorId d, PartitionId target) const {
  const Partition& part = venue().partition(target);
  double best = kInfDistance;
  for (DoorId d2 : part.doors) {
    const double cand = DoorToDoor(d, d2);
    if (cand < best) best = cand;
  }
  return best;
}

double DistanceOracle::PartitionToPartition(PartitionId p,
                                            PartitionId q) const {
  if (p == q) return 0.0;
  const Venue& v = venue();
  const Partition& part_p = v.partition(p);
  const Partition& part_q = v.partition(q);
  double best = kInfDistance;
  for (DoorId d1 : part_p.doors) {
    for (DoorId d2 : part_q.doors) {
      const double cand = DoorToDoor(d1, d2);
      if (cand < best) best = cand;
    }
  }
  return best;
}

// ------------------------------------------- degenerate hierarchy defaults
// One root "leaf" (id 0) containing every partition. Hierarchical solvers
// remain correct against such a backend; they just cannot prune.

NodeId DistanceOracle::root() const { return 0; }

std::size_t DistanceOracle::num_nodes() const { return 1; }

bool DistanceOracle::IsLeaf(NodeId) const { return true; }

NodeId DistanceOracle::Parent(NodeId) const { return kInvalidNode; }

NodeId DistanceOracle::LeafOf(PartitionId) const { return root(); }

std::span<const NodeId> DistanceOracle::Children(NodeId) const { return {}; }

const std::vector<PartitionId>& DistanceOracle::FlatPartitions() const {
  std::call_once(flat_partitions_once_, [&] {
    const std::size_t n = venue().num_partitions();
    flat_partitions_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      flat_partitions_[i] = static_cast<PartitionId>(i);
    }
  });
  return flat_partitions_;
}

std::span<const PartitionId> DistanceOracle::NodePartitions(NodeId) const {
  return FlatPartitions();
}

bool DistanceOracle::NodeContainsPartition(NodeId, PartitionId) const {
  return true;
}

double DistanceOracle::PartitionToNode(PartitionId, NodeId) const {
  return 0.0;
}

double DistanceOracle::PointToNode(const Point&, PartitionId, NodeId) const {
  return 0.0;
}

}  // namespace ifls
