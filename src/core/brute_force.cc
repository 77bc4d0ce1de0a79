#include "src/core/brute_force.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"

namespace ifls {
namespace {

/// Shared skeleton: precompute per-client NEF once, then fold every
/// candidate through `better`/`accumulate` policies.
struct NefTable {
  std::vector<double> nef;  // per client
};

NefTable ComputeNefTable(const IflsContext& ctx, QueryStats* stats) {
  NefTable table;
  table.nef.reserve(ctx.clients.size());
  for (const Client& c : ctx.clients) {
    double best = kInfDistance;
    for (PartitionId e : ctx.existing) {
      const double d = ctx.oracle->PointToPartition(c.position, c.partition, e);
      ++stats->distance_computations;
      if (d < best) best = d;
    }
    table.nef.push_back(best);
  }
  return table;
}

}  // namespace

Result<IflsResult> SolveBruteForceMinMax(const IflsContext& ctx) {
  IFLS_RETURN_NOT_OK(ValidateContext(ctx));
  IflsResult result;
  SolverScope scope(&result.stats);

  const NefTable table = ComputeNefTable(ctx, &result.stats);
  const double f0 = table.nef.empty()
                        ? 0.0
                        : *std::max_element(table.nef.begin(), table.nef.end());

  double best_obj = kInfDistance;
  PartitionId best = kInvalidPartition;
  for (PartitionId n : ctx.candidates) {
    double worst = 0.0;
    for (std::size_t i = 0; i < ctx.clients.size(); ++i) {
      const Client& c = ctx.clients[i];
      const double dn =
          ctx.oracle->PointToPartition(c.position, c.partition, n);
      ++result.stats.distance_computations;
      worst = std::max(worst, std::min(table.nef[i], dn));
      if (worst >= best_obj) break;  // cannot beat the incumbent
    }
    if (worst < best_obj) {
      best_obj = worst;
      best = n;
    }
  }
  if (best == kInvalidPartition) {
    result.found = false;
    result.objective = f0;
  } else {
    result.found = true;
    result.answer = best;
    result.objective = best_obj;
  }
  scope.Finish();
  return result;
}

Result<IflsResult> SolveBruteForceTopKMinMax(const IflsContext& ctx, int k) {
  if (k < 1) return Status::InvalidArgument("k must be positive");
  IFLS_RETURN_NOT_OK(ValidateContext(ctx));
  IflsResult result;
  SolverScope scope(&result.stats);

  const NefTable table = ComputeNefTable(ctx, &result.stats);
  std::vector<std::pair<PartitionId, double>> scored;
  scored.reserve(ctx.candidates.size());
  // Incumbent = k-th best objective so far; candidates whose running max
  // passes it are provably outside the top k.
  double incumbent = kInfDistance;
  for (PartitionId n : ctx.candidates) {
    double worst = 0.0;
    bool alive = true;
    for (std::size_t i = 0; i < ctx.clients.size(); ++i) {
      const Client& c = ctx.clients[i];
      const double dn =
          ctx.oracle->PointToPartition(c.position, c.partition, n);
      ++result.stats.distance_computations;
      worst = std::max(worst, std::min(table.nef[i], dn));
      if (worst >= incumbent) {
        alive = false;
        break;
      }
    }
    if (!alive) continue;
    scored.emplace_back(n, worst);
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    if (scored.size() > static_cast<std::size_t>(k)) scored.pop_back();
    if (scored.size() == static_cast<std::size_t>(k)) {
      incumbent = scored.back().second;
    }
  }
  result.ranked = std::move(scored);
  if (!result.ranked.empty()) {
    result.found = true;
    result.answer = result.ranked.front().first;
    result.objective = result.ranked.front().second;
  }
  scope.Finish();
  return result;
}

Result<IflsResult> SolveBruteForceMinDist(const IflsContext& ctx) {
  IFLS_RETURN_NOT_OK(ValidateContext(ctx));
  IflsResult result;
  SolverScope scope(&result.stats);

  const NefTable table = ComputeNefTable(ctx, &result.stats);
  double best_obj = kInfDistance;
  PartitionId best = kInvalidPartition;
  for (PartitionId n : ctx.candidates) {
    double total = 0.0;
    for (std::size_t i = 0; i < ctx.clients.size(); ++i) {
      const Client& c = ctx.clients[i];
      const double dn =
          ctx.oracle->PointToPartition(c.position, c.partition, n);
      ++result.stats.distance_computations;
      total += std::min(table.nef[i], dn);
      if (total >= best_obj) break;
    }
    if (total < best_obj) {
      best_obj = total;
      best = n;
    }
  }
  if (best == kInvalidPartition) {
    double f0 = 0.0;
    for (double nef : table.nef) f0 += nef;
    result.found = false;
    result.objective = f0;
  } else {
    result.found = true;
    result.answer = best;
    result.objective = best_obj;
  }
  scope.Finish();
  return result;
}

Result<IflsResult> SolveBruteForceMaxSum(const IflsContext& ctx) {
  IFLS_RETURN_NOT_OK(ValidateContext(ctx));
  IflsResult result;
  SolverScope scope(&result.stats);

  const NefTable table = ComputeNefTable(ctx, &result.stats);
  double best_obj = -1.0;
  PartitionId best = kInvalidPartition;
  for (PartitionId n : ctx.candidates) {
    std::int64_t count = 0;
    for (std::size_t i = 0; i < ctx.clients.size(); ++i) {
      const Client& c = ctx.clients[i];
      const double dn =
          ctx.oracle->PointToPartition(c.position, c.partition, n);
      ++result.stats.distance_computations;
      if (dn < table.nef[i]) ++count;
    }
    if (static_cast<double>(count) > best_obj) {
      best_obj = static_cast<double>(count);
      best = n;
    }
  }
  if (best == kInvalidPartition) {
    result.found = false;
    result.objective = 0.0;
  } else {
    result.found = true;
    result.answer = best;
    result.objective = best_obj;
  }
  scope.Finish();
  return result;
}

}  // namespace ifls
