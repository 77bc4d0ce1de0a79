#ifndef IFLS_CORE_MAXSUM_H_
#define IFLS_CORE_MAXSUM_H_

#include "src/core/query.h"

namespace ifls {

/// MaxSum variant of the efficient approach (paper §7): finds the candidate
/// maximizing the number of clients whose nearest facility would become the
/// new one, i.e. #{c : iDist(c, n) < NEF(c)}. Single bottom-up pass; every
/// candidate carries a count whose upper bound shrinks as retrieval
/// progresses, and the answer is emitted once the bound-maximizing
/// candidate's count is exact.
///
/// Contract: when `found`, `answer` maximizes the count and `objective` is
/// that exact count. found == false only when Fn is empty.
Result<IflsResult> SolveMaxSum(const IflsContext& ctx);

}  // namespace ifls

#endif  // IFLS_CORE_MAXSUM_H_
