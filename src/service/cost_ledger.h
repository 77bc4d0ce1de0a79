#ifndef IFLS_SERVICE_COST_LEDGER_H_
#define IFLS_SERVICE_COST_LEDGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/metrics_registry.h"
#include "src/common/trace.h"
#include "src/core/query.h"
#include "src/core/solve_dispatch.h"

namespace ifls {

/// One completed query as the cost ledger sees it (DESIGN.md §15): where it
/// ran (venue), what it computed (objective), who asked (trace id + the
/// caller's RPC span id when the query arrived over the wire), how long each
/// serving phase took, and the solver/oracle work counters attributed to it.
struct QueryCostSample {
  /// ServiceOptions::venue_label of the service that ran the query; empty
  /// for unlabeled single-venue services.
  std::string venue;
  IflsObjective objective = IflsObjective::kMinMax;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  double queue_seconds = 0.0;
  double solve_seconds = 0.0;
  QueryStats stats;
};

/// A retained worst-query entry: the sample, the kernel tier that served it,
/// and — when the query won the sampling draw — its full span tree, captured
/// at record time so the trace ring wrapping later cannot lose it.
struct SlowQueryRecord {
  QueryCostSample sample;
  std::string tier;
  std::vector<TraceEvent> spans;
};

/// Process-wide per-query cost ledger (DESIGN.md §15), the one place a
/// completed query's QueryStats are folded. Three products:
///
///  - The unlabeled `ifls_query_*_total` rollups in MetricsRegistry
///    (distance computations, lower bounds, NN searches, clients pruned,
///    queue pops, checkList and checkAnswer calls, door-cache hits and
///    misses), summed over every recorded query.
///
///  - Per-{venue, objective, tier} aggregates: every completed query folds
///    its phase times and work counters into exponentially-decayed means
///    (time constant kDecayTauSeconds — a sample from tau seconds ago
///    contributes e^-1 of a fresh one), registered lazily as
///    `ifls_ledger_*{venue=...,objective=...,tier=...}` series in
///    MetricsRegistry, so a Prometheus scrape shows the *current* cost shape
///    of production traffic, not a lifetime average.
///
///  - A fixed-capacity ring of the K worst queries by total latency
///    (queue + solve), each retaining its full span tree for post-hoc
///    retrieval through the /slow admin endpoint; the process's one
///    slow-query surface. Admission is a lock-free
///    scan of K atomic latency words: the common case (query not among the
///    K worst) costs K relaxed loads and allocates nothing. A query that
///    beats the current minimum claims the slot by CAS on the latency word,
///    then publishes the record under that slot's mutex; a claim lost to a
///    concurrent racer drops the sample (best-effort by design — under
///    contention every retained entry is still a real query, entries are
///    just not guaranteed to be the exact K worst).
///
/// All methods are safe from any thread.
class QueryCostLedger {
 public:
  static constexpr std::size_t kSlowRingSlots = 8;
  static constexpr double kDecayTauSeconds = 60.0;
  /// Number of ifls_query_*_total rollup series.
  static constexpr std::size_t kNumRollups = 9;

  static QueryCostLedger& Global();

  /// Folds one completed query into the rollups and aggregates and offers
  /// it to the slow ring. `capture_spans` controls whether a ring winner
  /// snapshots its span tree (callers pass the query's sampling verdict).
  void RecordQuery(const QueryCostSample& sample, bool capture_spans);

  /// The retained worst queries, worst (highest total latency) first.
  std::vector<std::shared_ptr<const SlowQueryRecord>> SlowQueries() const;

  /// SlowQueries() rendered as the /slow JSON document: an array of records
  /// with their span trees ({name, cat, tid, start_us, dur_us} objects).
  std::string SlowQueriesJson() const;

  /// Drops all aggregates (unregistering their metrics series) and empties
  /// the slow ring. Test isolation only — production never resets.
  void Reset();

  QueryCostLedger(const QueryCostLedger&) = delete;
  QueryCostLedger& operator=(const QueryCostLedger&) = delete;

 private:
  /// Decayed means for one {venue, objective, tier} key. Folding and the
  /// metrics callbacks share `mu` (samples are slow-path relative to the
  /// queries themselves; contention is per-key).
  struct Aggregate {
    mutable std::mutex mu;
    std::uint64_t queries = 0;
    std::uint64_t last_update_nanos = 0;
    double solve_seconds = 0.0;
    double queue_seconds = 0.0;
    double kernel_invocations = 0.0;
    double compositions = 0.0;
    double door_cache_hits = 0.0;
    double door_cache_misses = 0.0;
    double dijkstra_fallbacks = 0.0;
    std::vector<MetricsRegistry::Registration> registrations;
  };

  struct SlowSlot {
    /// Total latency of the resident entry; 0 = empty. The admission word.
    std::atomic<double> total_seconds{0.0};
    mutable std::mutex mu;
    std::shared_ptr<const SlowQueryRecord> record;
  };

  QueryCostLedger();
  ~QueryCostLedger() = default;  // never runs: Global() leaks the singleton

  Aggregate* AggregateFor(const std::string& venue, IflsObjective objective,
                          const char* tier);
  void OfferSlow(const QueryCostSample& sample, const char* tier,
                 bool capture_spans);

  /// Registry-owned, resolved once for the process.
  std::array<Counter*, kNumRollups> rollups_{};
  mutable std::mutex map_mu_;
  std::map<std::string, std::unique_ptr<Aggregate>> aggregates_;
  std::array<SlowSlot, kSlowRingSlots> slow_ring_;
};

}  // namespace ifls

#endif  // IFLS_SERVICE_COST_LEDGER_H_
