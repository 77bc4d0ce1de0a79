#include "src/core/maxsum.h"

#include <vector>

#include "src/common/trace.h"
#include "src/core/extension_engine.h"

namespace ifls {
namespace {

/// Per-candidate aggregate for MaxSum:
///   count(n) = cnt_alive + pruned_cnt          [certain part]
///   UB(n)    = count(n) + (alive - k_alive)    [unretrieved alive clients
///                                               might still be won over]
/// A pruned client counts for n iff its retrieved distance is strictly
/// below its NEF; unretrieved candidates are provably >= NEF, so they never
/// count — the aggregate is exact for pruned clients.
class MaxSumPolicy {
 public:
  void Init(std::size_t num_candidates) {
    cnt_alive_.assign(num_candidates, 0);
    k_alive_.assign(num_candidates, 0);
    pruned_cnt_.assign(num_candidates, 0);
  }

  void OnCandidateEvent(std::size_t ord, double dist) {
    (void)dist;  // alive client: dist <= d_low < NEF, so it always counts
    ++cnt_alive_[ord];
    ++k_alive_[ord];
  }

  void OnPrune(double nef, const internal::RetrievedMap& retrieved,
               double d_low,
               const std::vector<std::int32_t>& ordinal_of_partition) {
    for (const auto& [facility, dist] : retrieved) {
      const auto ord = static_cast<std::size_t>(
          ordinal_of_partition[static_cast<std::size_t>(facility)]);
      if (dist <= d_low) {
        // Previously counted while alive; move to the pruned tally with the
        // strict comparison against the now-known NEF.
        --cnt_alive_[ord];
        --k_alive_[ord];
      }
      if (dist < nef) ++pruned_cnt_[ord];
    }
  }

  std::int32_t TryDecide(std::int64_t alive, double gd,
                         double* objective) const {
    (void)gd;
    std::int32_t best = -1;
    std::int64_t best_bound = -1;
    bool best_exact = false;
    for (std::size_t i = 0; i < cnt_alive_.size(); ++i) {
      const std::int64_t missing = alive - k_alive_[i];
      const bool exact = missing == 0;
      const std::int64_t bound = cnt_alive_[i] + pruned_cnt_[i] + missing;
      if (bound > best_bound || (bound == best_bound && exact && !best_exact)) {
        best_bound = bound;
        best = static_cast<std::int32_t>(i);
        best_exact = exact;
      }
    }
    if (best < 0 || !best_exact) return -1;
    *objective = static_cast<double>(best_bound);
    return best;
  }

 private:
  std::vector<std::int64_t> cnt_alive_;
  std::vector<std::int64_t> k_alive_;
  std::vector<std::int64_t> pruned_cnt_;
};

}  // namespace

Result<IflsResult> SolveMaxSum(const IflsContext& ctx,
                               const MaxSumOptions& options) {
  IFLS_RETURN_NOT_OK(ValidateContext(ctx));
  IflsResult result;
  SolverScope scope(&result.stats);
  TraceSpan span(TraceCategory::kSolver, "maxsum");
  internal::IncrementalObjectiveSolver<MaxSumPolicy> solver(
      ctx, options.group_clients, &result);
  solver.Run();
  scope.Finish();
  return result;
}

}  // namespace ifls
