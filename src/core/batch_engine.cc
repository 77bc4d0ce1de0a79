#include "src/core/batch_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/stopwatch.h"

namespace ifls {

BatchQueryEngine::BatchQueryEngine(BatchEngineOptions options)
    : options_(options),
      pool_(options.num_threads <= 0 ? ThreadPool::DefaultThreads()
                                     : options.num_threads) {}

BatchQueryOutcome BatchQueryEngine::RunOne(const BatchQuery& query) const {
  BatchQueryOutcome outcome;
  Result<IflsResult> solved =
      SolveWithObjective(query.objective, query.context,
                         {options_.minmax});
  if (solved.ok()) {
    outcome.result = std::move(solved).value();
  } else {
    outcome.status = solved.status();
  }
  return outcome;
}

std::vector<BatchQueryOutcome> BatchQueryEngine::Run(
    const std::vector<BatchQuery>& queries) {
  Stopwatch watch;
  std::vector<BatchQueryOutcome> outcomes(queries.size());
  // Each iteration writes only its own slot; ParallelFor's dynamic claiming
  // decides *who* runs a query but can never change *what* it computes.
  pool_.ParallelFor(queries.size(), [&](std::size_t i) {
    outcomes[i] = RunOne(queries[i]);
  });
  FillReport(outcomes, watch.ElapsedSeconds(), pool_.num_threads());
  return outcomes;
}

std::vector<BatchQueryOutcome> BatchQueryEngine::RunSequential(
    const std::vector<BatchQuery>& queries) {
  Stopwatch watch;
  std::vector<BatchQueryOutcome> outcomes(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    outcomes[i] = RunOne(queries[i]);
  }
  FillReport(outcomes, watch.ElapsedSeconds(), 1);
  return outcomes;
}

void BatchQueryEngine::FillReport(
    const std::vector<BatchQueryOutcome>& outcomes, double wall_seconds,
    int num_threads) {
  report_ = BatchRunReport{};
  report_.num_threads = num_threads;
  report_.num_queries = outcomes.size();
  report_.wall_seconds = wall_seconds;
  report_.queries_per_second =
      wall_seconds > 0.0 ? static_cast<double>(outcomes.size()) / wall_seconds
                         : 0.0;
  for (const BatchQueryOutcome& o : outcomes) {
    if (!o.status.ok()) {
      ++report_.num_failed;
      continue;
    }
    report_.total_distance_computations += o.result.stats.distance_computations;
    report_.max_peak_memory_bytes = std::max(
        report_.max_peak_memory_bytes, o.result.stats.peak_memory_bytes);
  }
}

}  // namespace ifls
