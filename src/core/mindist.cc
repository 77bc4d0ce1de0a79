#include "src/core/mindist.h"

#include <algorithm>
#include <vector>

#include "src/common/trace.h"
#include "src/core/extension_engine.h"

namespace ifls {
namespace {

/// Per-candidate aggregate for MinDist. Invariants (see §7 discussion in
/// DESIGN.md):
///   total(n) = sum_alive + (alive - k_alive) * Gd          [lower bound]
///            + pruned_nef_sum + pruned_adj                 [exact]
/// where a pruned client's contribution is min(NEF, dist) — exact because
/// any candidate unretrieved at prune time is provably no closer than the
/// client's NEF.
class MinDistPolicy {
 public:
  void Init(std::size_t num_candidates) {
    sum_alive_.assign(num_candidates, 0.0);
    k_alive_.assign(num_candidates, 0);
    pruned_adj_.assign(num_candidates, 0.0);
    pruned_nef_sum_ = 0.0;
  }

  void OnCandidateEvent(std::size_t ord, double dist) {
    sum_alive_[ord] += dist;
    ++k_alive_[ord];
  }

  void OnPrune(double nef, const internal::RetrievedMap& retrieved,
               double d_low,
               const std::vector<std::int32_t>& ordinal_of_partition) {
    pruned_nef_sum_ += nef;
    for (const auto& [facility, dist] : retrieved) {
      const auto ord = static_cast<std::size_t>(
          ordinal_of_partition[static_cast<std::size_t>(facility)]);
      if (dist <= d_low) {
        sum_alive_[ord] -= dist;
        --k_alive_[ord];
      }
      pruned_adj_[ord] += std::min(nef, dist) - nef;
    }
  }

  std::int32_t TryDecide(std::int64_t alive, double gd,
                         double* objective) const {
    std::int32_t best = -1;
    double best_bound = kInfDistance;
    bool best_exact = false;
    for (std::size_t i = 0; i < sum_alive_.size(); ++i) {
      const std::int64_t missing = alive - k_alive_[i];
      const bool exact = missing == 0;
      const double bound = sum_alive_[i] + (exact ? 0.0 : missing * gd) +
                           pruned_nef_sum_ + pruned_adj_[i];
      if (bound < best_bound || (bound == best_bound && exact && !best_exact)) {
        best_bound = bound;
        best = static_cast<std::int32_t>(i);
        best_exact = exact;
      }
    }
    if (best < 0 || !best_exact) return -1;
    *objective = best_bound;
    return best;
  }

 private:
  std::vector<double> sum_alive_;
  std::vector<std::int64_t> k_alive_;
  std::vector<double> pruned_adj_;
  double pruned_nef_sum_ = 0.0;
};

}  // namespace

Result<IflsResult> SolveMinDist(const IflsContext& ctx,
                                const MinDistOptions& options) {
  IFLS_RETURN_NOT_OK(ValidateContext(ctx));
  IflsResult result;
  SolverScope scope(&result.stats);
  TraceSpan span(TraceCategory::kSolver, "mindist");
  internal::IncrementalObjectiveSolver<MinDistPolicy> solver(
      ctx, options.group_clients, &result);
  solver.Run();
  scope.Finish();
  return result;
}

}  // namespace ifls
