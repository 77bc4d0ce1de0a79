#include "src/core/query.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"

namespace ifls {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Status ValidateContext(const IflsContext& ctx) {
  if (ctx.oracle == nullptr) {
    return Status::InvalidArgument("context has no index");
  }
  const Venue& venue = ctx.venue();
  const auto num_partitions = static_cast<PartitionId>(venue.num_partitions());
  std::vector<char> kind(static_cast<std::size_t>(num_partitions), 0);
  for (PartitionId p : ctx.existing) {
    if (p < 0 || p >= num_partitions) {
      return Status::InvalidArgument("existing facility id out of range: " +
                                     std::to_string(p));
    }
    if (kind[static_cast<std::size_t>(p)] != 0) {
      return Status::InvalidArgument("duplicate existing facility: " +
                                     std::to_string(p));
    }
    kind[static_cast<std::size_t>(p)] = 1;
  }
  for (PartitionId p : ctx.candidates) {
    if (p < 0 || p >= num_partitions) {
      return Status::InvalidArgument("candidate location id out of range: " +
                                     std::to_string(p));
    }
    if (kind[static_cast<std::size_t>(p)] == 1) {
      return Status::InvalidArgument(
          "partition is both existing facility and candidate: " +
          std::to_string(p));
    }
    if (kind[static_cast<std::size_t>(p)] == 2) {
      return Status::InvalidArgument("duplicate candidate location: " +
                                     std::to_string(p));
    }
    kind[static_cast<std::size_t>(p)] = 2;
  }
  for (const Client& c : ctx.clients) {
    if (c.partition < 0 || c.partition >= num_partitions) {
      return Status::InvalidArgument("client partition out of range");
    }
    if (!venue.partition(c.partition).rect.Contains(c.position)) {
      return Status::InvalidArgument(
          "client " + std::to_string(c.id) +
          " position lies outside its partition");
    }
  }
  return Status::OK();
}

std::string QueryStats::ToString() const {
  std::ostringstream os;
  os << "QueryStats{time=" << elapsed_seconds << "s"
     << ", dist=" << distance_computations
     << ", lb=" << lower_bound_computations << ", push=" << queue_pushes
     << ", pop=" << queue_pops << ", nn=" << nn_searches
     << ", pruned=" << clients_pruned
     << ", retrieved=" << facilities_retrieved
     << ", cache_hit=" << cache_hits << ", cache_miss=" << cache_misses
     << ", peak_mem=" << peak_memory_bytes / 1024.0 / 1024.0 << "MiB}";
  return os.str();
}

SolverScope::SolverScope(QueryStats* stats)
    : stats_(stats),
      scope_(&tracker_),
      counter_sink_(&counters_),
      start_seconds_(NowSeconds()) {}

void SolverScope::Finish() {
  IFLS_CHECK(!finished_) << "SolverScope::Finish called twice";
  finished_ = true;
  stats_->elapsed_seconds = NowSeconds() - start_seconds_;
  stats_->peak_memory_bytes =
      std::max<std::int64_t>(stats_->peak_memory_bytes, tracker_.peak_bytes());
  stats_->door_distance_evals += counters_.door_distance_evals;
  stats_->matrix_lookups += counters_.matrix_lookups;
  stats_->cache_hits += counters_.cache_hits;
  stats_->cache_misses += counters_.cache_misses;
  stats_->kernel_invocations += counters_.kernel_invocations;
  stats_->dijkstra_fallbacks += counters_.dijkstra_fallbacks;
}

SolverScope::~SolverScope() {
  if (!finished_) Finish();
}

double NearestExistingDistance(const IflsContext& ctx, const Client& c) {
  double best = kInfDistance;
  for (PartitionId e : ctx.existing) {
    const double d = ctx.oracle->PointToPartition(c.position, c.partition, e);
    if (d < best) best = d;
  }
  return best;
}

double EvaluateMinMax(const IflsContext& ctx, PartitionId n) {
  double worst = 0.0;
  for (const Client& c : ctx.clients) {
    const double nef = NearestExistingDistance(ctx, c);
    const double dn = ctx.oracle->PointToPartition(c.position, c.partition, n);
    worst = std::max(worst, std::min(nef, dn));
  }
  return worst;
}

double NoFacilityMinMax(const IflsContext& ctx) {
  double worst = 0.0;
  for (const Client& c : ctx.clients) {
    worst = std::max(worst, NearestExistingDistance(ctx, c));
  }
  return worst;
}

double EvaluateMinDist(const IflsContext& ctx, PartitionId n) {
  double total = 0.0;
  for (const Client& c : ctx.clients) {
    const double nef = NearestExistingDistance(ctx, c);
    const double dn = ctx.oracle->PointToPartition(c.position, c.partition, n);
    total += std::min(nef, dn);
  }
  return total;
}

double NoFacilityMinDist(const IflsContext& ctx) {
  double total = 0.0;
  for (const Client& c : ctx.clients) {
    total += NearestExistingDistance(ctx, c);
  }
  return total;
}

double EvaluateMaxSum(const IflsContext& ctx, PartitionId n) {
  std::int64_t count = 0;
  for (const Client& c : ctx.clients) {
    const double nef = NearestExistingDistance(ctx, c);
    const double dn = ctx.oracle->PointToPartition(c.position, c.partition, n);
    if (dn < nef) ++count;
  }
  return static_cast<double>(count);
}

}  // namespace ifls
