#include "src/core/minmax_baseline.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/logging.h"
#include "src/common/memory_tracker.h"
#include "src/common/trace.h"

namespace ifls {
namespace {

/// One entry of the sorted list Ls: a client and its nearest existing
/// facility distance.
struct NefEntry {
  std::size_t client_index = 0;
  PartitionId nearest_existing = kInvalidPartition;
  double distance = 0.0;
};

/// A surviving candidate: its id and the maximum distance to the clients
/// considered so far (rules 3(a)/3(b) both compare against this running max).
struct CandidateRecord {
  PartitionId id = kInvalidPartition;
  double max_considered_distance = 0.0;
};

}  // namespace

Result<IflsResult> SolveModifiedMinMax(const IflsContext& ctx,
                                       const MinMaxBaselineOptions& options) {
  IFLS_RETURN_NOT_OK(ValidateContext(ctx));
  IflsResult result;
  SolverScope scope(&result.stats);
  TraceSpan solver_span(TraceCategory::kSolver, "minmax_baseline");
  QueryStats& stats = result.stats;

  // Degenerate inputs first.
  if (ctx.candidates.empty()) {
    result.found = false;
    result.objective = NoFacilityMinMax(ctx);
    scope.Finish();
    return result;
  }
  if (ctx.clients.empty()) {
    // Every candidate yields objective 0; return the first.
    result.found = true;
    result.answer = ctx.candidates.front();
    result.objective = 0.0;
    scope.Finish();
    return result;
  }

  // Step 1: nearest existing facility per client (paper: VIP-tree NN search
  // over the offline Fe index), sorted descending by distance.
  const FacilityIndex* fe_index = options.offline_existing_index;
  std::unique_ptr<FacilityIndex> owned_index;
  if (fe_index == nullptr) {
    owned_index = std::make_unique<FacilityIndex>(ctx.oracle, ctx.existing);
    fe_index = owned_index.get();
  }
  IFLS_CHECK(fe_index->num_existing() ==
             static_cast<std::int32_t>(ctx.existing.size()))
      << "offline index does not match the context's existing set";

  TrackedVector<NefEntry> sorted_list;
  {
    TraceSpan span(TraceCategory::kSolver, "baseline/nn_phase");
    sorted_list.reserve(ctx.clients.size());
    for (std::size_t i = 0; i < ctx.clients.size(); ++i) {
      const Client& c = ctx.clients[i];
      NnSearchStats nn_stats;
      std::optional<NnResult> nn =
          NearestFacility(*fe_index, c.position, c.partition,
                          FacilityFilter::kExistingOnly, &nn_stats);
      stats.AddNnStats(nn_stats);
      ++stats.nn_searches;
      NefEntry entry;
      entry.client_index = i;
      if (nn.has_value()) {
        entry.nearest_existing = nn->facility;
        entry.distance = nn->distance;
      } else {
        entry.nearest_existing = kInvalidPartition;
        entry.distance = kInfDistance;  // no existing facilities at all
      }
      sorted_list.push_back(entry);
    }
    std::sort(sorted_list.begin(), sorted_list.end(),
              [](const NefEntry& a, const NefEntry& b) {
                return a.distance > b.distance;
              });
  }
  // Covers steps 2-5 (candidate seeding, refinement, Find_Ans) through every
  // return path below.
  TraceSpan refine_span(TraceCategory::kSolver, "baseline/refine");

  auto client_of = [&](std::size_t rank) -> const Client& {
    return ctx.clients[sorted_list[rank].client_index];
  };

  // Step 2: candidate answer set from the worst-off client.
  TrackedVector<CandidateRecord> ca;
  for (PartitionId n : ctx.candidates) {
    const Client& c0 = client_of(0);
    const double d = ctx.oracle->PointToPartition(c0.position, c0.partition, n);
    ++stats.distance_computations;
    if (d < sorted_list[0].distance) {
      ca.push_back({n, d});
    }
  }
  ++stats.check_answer_calls;

  // Step 3: refinement, one client at a time in descending NEF order.
  TrackedVector<CandidateRecord> ca_prev = ca;
  std::size_t i = 1;
  double emptying_threshold = sorted_list[0].distance;
  while (i < sorted_list.size() && ca.size() > 1) {
    const double threshold = sorted_list[i].distance;
    ca_prev = ca;
    TrackedVector<CandidateRecord> next;
    next.reserve(ca.size());
    for (CandidateRecord rec : ca) {
      const Client& ci = client_of(i);
      const double d =
          ctx.oracle->PointToPartition(ci.position, ci.partition, rec.id);
      ++stats.distance_computations;
      // Rule 3(a): drop candidates no closer than the client's NEF.
      // Rule 3(b): drop candidates whose distance to a previously considered
      // client exceeds the current client's NEF.
      if (d < threshold && rec.max_considered_distance <= threshold) {
        rec.max_considered_distance =
            std::max(rec.max_considered_distance, d);
        next.push_back(rec);
      }
    }
    if (next.empty()) emptying_threshold = threshold;
    ca = std::move(next);
    ++i;
  }

  // Step 5: Find_Ans. When refinement emptied CA, fall back to the previous
  // set; the emptying client's NEF clamps every value from below (that
  // client's contribution cannot drop under its NEF for any fallback
  // candidate).
  const TrackedVector<CandidateRecord>* pool = &ca;
  double clamp = 0.0;
  if (ca.empty()) {
    pool = &ca_prev;
    clamp = emptying_threshold;
  } else if (i < sorted_list.size()) {
    clamp = sorted_list[i].distance;  // first unconsidered client's NEF
  }
  if (pool->empty()) {
    // No candidate improves the worst-off client.
    result.found = false;
    result.objective = sorted_list[0].distance;
    scope.Finish();
    return result;
  }
  const CandidateRecord* best = nullptr;
  double best_value = kInfDistance;
  for (const CandidateRecord& rec : *pool) {
    const double value = std::max(rec.max_considered_distance, clamp);
    if (value < best_value) {
      best_value = value;
      best = &rec;
    }
  }
  result.found = true;
  result.answer = best->id;
  result.objective = best_value;
  scope.Finish();
  return result;
}

}  // namespace ifls
