#include "src/index/nn_search.h"

#include <functional>
#include <queue>

#include "src/common/logging.h"
#include "src/common/memory_tracker.h"
#include "src/common/trace.h"

namespace ifls {
namespace {

struct Entry {
  double key = 0.0;
  std::int32_t id = -1;  // NodeId or PartitionId depending on is_partition
  bool is_partition = false;
  bool operator>(const Entry& other) const { return key > other.key; }
};

bool MatchesFilter(const FacilityIndex& index, PartitionId p,
                   FacilityFilter filter) {
  switch (filter) {
    case FacilityFilter::kAny:
      return index.IsFacility(p);
    case FacilityFilter::kExistingOnly:
      return index.IsExisting(p);
    case FacilityFilter::kCandidateOnly:
      return index.IsCandidate(p);
  }
  return false;
}

/// Best-first traversal emitting facilities in ascending exact distance.
/// `emit` returns false to stop the search.
///
/// Every key computed here (PointToPartition exact distances, PointToNode
/// lower bounds) bottoms out in the oracle's min-plus reductions, which run
/// on the blocked kernels in src/index/minplus_kernels.h — the kernels'
/// bit-identity contract is what keeps this traversal's pop order, and thus
/// NN tie-breaks, identical across scalar and SIMD dispatch.
void IncrementalSearch(const FacilityIndex& index, const Point& query,
                       PartitionId query_partition, FacilityFilter filter,
                       NnSearchStats* stats,
                       const std::function<bool(const NnResult&)>& emit) {
  TraceSpan span(TraceCategory::kOracle, "nn_search");
  const DistanceOracle& oracle = index.oracle();
  // The queue charges the caller's active MemoryTracker so a query's search
  // footprint shows up in its memory stats.
  std::priority_queue<Entry, TrackedVector<Entry>, std::greater<Entry>>
      queue;

  auto push = [&](const Entry& e) {
    queue.push(e);
    if (stats != nullptr) ++stats->queue_pushes;
  };

  if (index.SubtreeCount(oracle.root()) > 0) {
    push({0.0, oracle.root(), false});
  }
  while (!queue.empty()) {
    const Entry top = queue.top();
    queue.pop();
    if (stats != nullptr) ++stats->queue_pops;
    if (top.is_partition) {
      // PointToPartition keys are exact, so a popped partition is settled.
      if (!emit({top.id, top.key})) return;
      continue;
    }
    if (oracle.IsLeaf(top.id)) {
      for (PartitionId p : oracle.NodePartitions(top.id)) {
        if (!MatchesFilter(index, p, filter)) continue;
        const double d = oracle.PointToPartition(query, query_partition, p);
        if (stats != nullptr) ++stats->distance_computations;
        push({d, p, true});
      }
    } else {
      for (NodeId ch : oracle.Children(top.id)) {
        if (index.SubtreeCount(ch) == 0) continue;
        const double bound = oracle.PointToNode(query, query_partition, ch);
        if (stats != nullptr) ++stats->distance_computations;
        push({bound, ch, false});
      }
    }
  }
}

}  // namespace

std::optional<NnResult> NearestFacility(const FacilityIndex& index,
                                        const Point& query,
                                        PartitionId query_partition,
                                        FacilityFilter filter,
                                        NnSearchStats* stats) {
  std::optional<NnResult> result;
  IncrementalSearch(index, query, query_partition, filter, stats,
                    [&](const NnResult& r) {
                      result = r;
                      return false;
                    });
  return result;
}

std::vector<NnResult> KNearestFacilities(const FacilityIndex& index,
                                         const Point& query,
                                         PartitionId query_partition, int k,
                                         FacilityFilter filter,
                                         NnSearchStats* stats) {
  IFLS_CHECK(k >= 0);
  std::vector<NnResult> results;
  if (k == 0) return results;
  results.reserve(static_cast<std::size_t>(k));
  IncrementalSearch(index, query, query_partition, filter, stats,
                    [&](const NnResult& r) {
                      results.push_back(r);
                      return static_cast<int>(results.size()) < k;
                    });
  return results;
}

std::vector<NnResult> FacilitiesWithinRadius(const FacilityIndex& index,
                                             const Point& query,
                                             PartitionId query_partition,
                                             double radius,
                                             FacilityFilter filter,
                                             NnSearchStats* stats) {
  std::vector<NnResult> results;
  IncrementalSearch(index, query, query_partition, filter, stats,
                    [&](const NnResult& r) {
                      if (r.distance > radius) return false;
                      results.push_back(r);
                      return true;
                    });
  return results;
}

}  // namespace ifls
