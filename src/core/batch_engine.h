#ifndef IFLS_CORE_BATCH_ENGINE_H_
#define IFLS_CORE_BATCH_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/query.h"
#include "src/core/solve_dispatch.h"

namespace ifls {

/// One item of a batch: an objective plus the query's immutable inputs. All
/// items of a batch must reference trees over venues that stay alive for
/// the duration of the run; items may share a tree or use different ones.
struct BatchQuery {
  IflsObjective objective = IflsObjective::kMinMax;
  IflsContext context;
};

/// Per-query outcome, in input order. `status` is non-ok when that query's
/// context failed validation (other queries are unaffected); `result` is
/// meaningful only when `status.ok()`.
struct BatchQueryOutcome {
  Status status;
  IflsResult result;
};

/// Engine configuration. `minmax` applies to every MinMax query; MinDist and
/// MaxSum take no options.
struct BatchEngineOptions {
  /// Worker threads; <= 0 selects ThreadPool::DefaultThreads(). 1 runs
  /// every query inline on the calling thread.
  int num_threads = 0;
  EfficientOptions minmax;
};

/// Aggregate metrics of the most recent Run/RunSequential.
struct BatchRunReport {
  int num_threads = 0;
  std::size_t num_queries = 0;
  std::size_t num_failed = 0;
  double wall_seconds = 0.0;
  double queries_per_second = 0.0;
  /// Sum over queries of their exact indoor-distance evaluations.
  std::int64_t total_distance_computations = 0;
  /// Largest single-query logical memory high-water mark. Still meaningful
  /// under concurrency: each query's peak is tracked by its own thread-local
  /// MemoryTracker.
  std::int64_t max_peak_memory_bytes = 0;
};

/// Parallel batch query engine: fans a vector of IFLS queries
/// (MinMax/MinDist/MaxSum) out across a fixed thread pool. The shared
/// distance oracle is only ever read; every query gets its own solver state,
/// thread-local memory tracking and a thread-local index-counter sink, so
/// results (answers, objectives, tie-breaks, and per-query work counters)
/// are bit-identical to sequential execution and independent of worker
/// interleaving: outcome[i] depends only on queries[i].
///
/// Queries are claimed dynamically from an atomic cursor, so large batches
/// load-balance even when per-query cost is skewed.
class BatchQueryEngine {
 public:
  explicit BatchQueryEngine(BatchEngineOptions options = {});

  /// Runs every query across the pool; outcome i corresponds to query i.
  std::vector<BatchQueryOutcome> Run(const std::vector<BatchQuery>& queries);

  /// Reference implementation: the same per-query solve, in a plain loop on
  /// the calling thread. Differential tests pin Run() against this.
  std::vector<BatchQueryOutcome> RunSequential(
      const std::vector<BatchQuery>& queries);

  /// Solves one query with the engine's solver options (the unit of work
  /// both Run paths share).
  BatchQueryOutcome RunOne(const BatchQuery& query) const;

  int num_threads() const { return pool_.num_threads(); }
  const BatchEngineOptions& options() const { return options_; }

  /// Metrics of the most recent Run/RunSequential call.
  const BatchRunReport& last_report() const { return report_; }

 private:
  void FillReport(const std::vector<BatchQueryOutcome>& outcomes,
                  double wall_seconds, int num_threads);

  BatchEngineOptions options_;
  ThreadPool pool_;
  BatchRunReport report_;
};

}  // namespace ifls

#endif  // IFLS_CORE_BATCH_ENGINE_H_
