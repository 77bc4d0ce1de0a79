#ifndef IFLS_CORE_MINDIST_H_
#define IFLS_CORE_MINDIST_H_

#include "src/core/query.h"

namespace ifls {

/// MinDist variant of the efficient approach (paper §7): finds the candidate
/// minimizing the *total* (equivalently average) distance of the clients to
/// their nearest facilities. Single bottom-up pass; every candidate carries
/// a total-distance aggregate that is a lower bound until the candidate has
/// been retrieved for every surviving client, and the answer is emitted once
/// the bound-minimizing candidate's total is exact.
///
/// Contract: when `found`, `answer` minimizes sum_c min(NEF(c), iDist(c, n))
/// and `objective` is that exact total. found == false only when Fn is
/// empty.
Result<IflsResult> SolveMinDist(const IflsContext& ctx);

}  // namespace ifls

#endif  // IFLS_CORE_MINDIST_H_
