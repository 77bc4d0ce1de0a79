#ifndef IFLS_CORE_SOLVE_DISPATCH_H_
#define IFLS_CORE_SOLVE_DISPATCH_H_

#include <cstdint>

#include "src/core/efficient.h"
#include "src/core/maxsum.h"
#include "src/core/mindist.h"
#include "src/core/query.h"

namespace ifls {

/// Which IFLS objective a query optimizes (paper §4 / §7).
enum class IflsObjective : std::uint8_t { kMinMax, kMinDist, kMaxSum };

/// "MinMax" / "MinDist" / "MaxSum".
const char* IflsObjectiveName(IflsObjective objective);

/// Solver options shared by every execution front (batch engine, online
/// service, CLI), so all of them configure the solvers identically. Only
/// MinMax has options; MinDist and MaxSum run the retrieval core's defaults.
struct SolverOptionSet {
  EfficientOptions minmax;
};

/// Runs the matching efficient solver on `ctx`: the single
/// objective-dispatch point shared by the batch engine and the online
/// service, so both fronts produce bit-identical results for the same
/// context and options.
Result<IflsResult> SolveWithObjective(IflsObjective objective,
                                      const IflsContext& ctx,
                                      const SolverOptionSet& options = {});

/// Lazy-continuation counterpart of SolveWithObjective: opens a RankedStream
/// over `ctx` for objectives that define a full ranking. Only MinMax streams
/// today (the paper's ranked extension); other objectives return
/// InvalidArgument so service callers fail fast instead of silently
/// re-solving per page.
Result<std::unique_ptr<RankedStream>> OpenRankedStream(
    IflsObjective objective, const IflsContext& ctx,
    const SolverOptionSet& options = {});

}  // namespace ifls

#endif  // IFLS_CORE_SOLVE_DISPATCH_H_
