#include "src/core/mindist.h"

#include <algorithm>
#include <vector>

#include "src/core/retrieval.h"

namespace ifls {
namespace {

/// Per-candidate aggregate for MinDist over the retrieval core's count k
/// (alive clients with the candidate retrieved within d_low). Invariants
/// (see §7 discussion in DESIGN.md):
///   total(n) = sum_alive + (alive - k) * Gd                [lower bound]
///            + pruned_nef_sum + pruned_adj                 [exact]
/// where a pruned client's contribution is min(NEF, dist) — exact because
/// any candidate unretrieved at prune time is provably no closer than the
/// client's NEF.
class MinDistPolicy {
 public:
  explicit MinDistPolicy(std::size_t num_candidates)
      : sum_alive_(num_candidates, 0.0), pruned_adj_(num_candidates, 0.0) {}

  bool done() const { return false; }

  void OnCandidateEvent(std::size_t ord, double dist) {
    sum_alive_[ord] += dist;
  }

  void OnPrunedCandidate(std::size_t ord, double dist, bool counted,
                         double nef) {
    if (counted) sum_alive_[ord] -= dist;
    pruned_adj_[ord] += std::min(nef, dist) - nef;
  }

  void OnPrune(std::uint32_t /*ci*/, double nef) { pruned_nef_sum_ += nef; }

  std::int32_t TryDecide(const TrackedVector<std::int32_t>& counts,
                         std::int64_t alive, double gd,
                         double* objective) const {
    std::int32_t best = -1;
    double best_bound = kInfDistance;
    bool best_exact = false;
    for (std::size_t i = 0; i < sum_alive_.size(); ++i) {
      const std::int64_t missing = alive - counts[i];
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
  std::vector<double> pruned_adj_;
  double pruned_nef_sum_ = 0.0;
};

}  // namespace

Result<IflsResult> SolveMinDist(const IflsContext& ctx) {
  return internal::SolveWithPolicy<MinDistPolicy>(ctx, "mindist");
}

}  // namespace ifls
