#include "src/core/maxsum.h"

#include <vector>

#include "src/core/retrieval.h"

namespace ifls {
namespace {

/// Per-candidate aggregate for MaxSum over the retrieval core's count k
/// (alive clients with the candidate retrieved within d_low):
///   count(n) = k + pruned_cnt                  [certain part]
///   UB(n)    = count(n) + (alive - k)          [unretrieved alive clients
///            = alive + pruned_cnt               might still be won over]
/// An alive client's retrieval within d_low always counts (dist <= d_low <
/// NEF). A pruned client counts for n iff its retrieved distance is strictly
/// below its NEF; unretrieved candidates are provably >= NEF, so they never
/// count — the aggregate is exact for pruned clients.
class MaxSumPolicy {
 public:
  explicit MaxSumPolicy(std::size_t num_candidates)
      : pruned_cnt_(num_candidates, 0) {}

  bool done() const { return false; }

  void OnCandidateEvent(std::size_t /*ord*/, double /*dist*/) {}

  void OnPrunedCandidate(std::size_t ord, double dist, bool /*counted*/,
                         double nef) {
    if (dist < nef) ++pruned_cnt_[ord];
  }

  void OnPrune(std::uint32_t /*ci*/, double /*nef*/) {}

  std::int32_t TryDecide(const TrackedVector<std::int32_t>& counts,
                         std::int64_t alive, double /*gd*/,
                         double* objective) const {
    std::int32_t best = -1;
    std::int64_t best_bound = -1;
    bool best_exact = false;
    for (std::size_t i = 0; i < pruned_cnt_.size(); ++i) {
      const bool exact = counts[i] == alive;
      const std::int64_t bound = alive + pruned_cnt_[i];
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
  std::vector<std::int64_t> pruned_cnt_;
};

}  // namespace

Result<IflsResult> SolveMaxSum(const IflsContext& ctx) {
  return internal::SolveWithPolicy<MaxSumPolicy>(ctx, "maxsum");
}

}  // namespace ifls
