#include "src/core/solve_dispatch.h"

namespace ifls {

const char* IflsObjectiveName(IflsObjective objective) {
  switch (objective) {
    case IflsObjective::kMinMax:
      return "MinMax";
    case IflsObjective::kMinDist:
      return "MinDist";
    case IflsObjective::kMaxSum:
      return "MaxSum";
  }
  return "unknown";
}

Result<IflsResult> SolveWithObjective(IflsObjective objective,
                                      const IflsContext& ctx,
                                      const SolverOptionSet& options) {
  switch (objective) {
    case IflsObjective::kMinMax:
      return SolveEfficient(ctx, options.minmax);
    case IflsObjective::kMinDist:
      return SolveMinDist(ctx);
    case IflsObjective::kMaxSum:
      return SolveMaxSum(ctx);
  }
  return Status::Internal("unknown objective");
}

Result<std::unique_ptr<RankedStream>> OpenRankedStream(
    IflsObjective objective, const IflsContext& ctx,
    const SolverOptionSet& options) {
  if (objective != IflsObjective::kMinMax) {
    return Status::InvalidArgument(
        std::string("no ranked stream for objective ") +
        IflsObjectiveName(objective));
  }
  return RankedStream::Open(ctx, options.minmax);
}

}  // namespace ifls
