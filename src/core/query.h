#ifndef IFLS_CORE_QUERY_H_
#define IFLS_CORE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/common/status.h"
#include "src/index/distance_oracle.h"
#include "src/index/facility_index.h"
#include "src/index/nn_search.h"

namespace ifls {

/// Immutable inputs of one IFLS query: the distance oracle over the indexed
/// venue, the existing facility set Fe, the candidate location set Fn and the
/// client set C. Facilities are partitions (paper §3); the two sets must be
/// disjoint. Any DistanceOracle backend works (VIP-tree, door-graph,
/// brute-force); solvers depend only on the interface.
struct IflsContext {
  const DistanceOracle* oracle = nullptr;
  std::vector<PartitionId> existing;
  std::vector<PartitionId> candidates;
  std::vector<Client> clients;

  const Venue& venue() const { return oracle->venue(); }
};

/// Checks ids, ranges, client/partition consistency and Fe/Fn disjointness.
Status ValidateContext(const IflsContext& ctx);

/// Work and memory counters recorded by every solver. Memory is the logical
/// high-water mark of the query's data structures (DESIGN.md §2, item 2),
/// reproducing the paper's "memory cost" metric deterministically.
struct QueryStats {
  /// Wall-clock solve time, stamped by SolverScope::Finish().
  double elapsed_seconds = 0.0;
  /// Exact point-based indoor distance evaluations (paper: "indoor distance
  /// computations").
  std::int64_t distance_computations = 0;
  /// iMinD lower-bound evaluations.
  std::int64_t lower_bound_computations = 0;
  /// Traversal priority-queue traffic (solver main loop + NN searches via
  /// AddNnStats); the paper's proxy for index navigation effort.
  std::int64_t queue_pushes = 0;
  std::int64_t queue_pops = 0;
  /// Complete NN searches issued (baseline only).
  std::int64_t nn_searches = 0;
  /// Clients eliminated by the pruning rules before their facility lists
  /// completed (paper §5.2).
  std::int64_t clients_pruned = 0;
  /// Facility-to-client list insertions (EA) / candidate retrievals.
  std::int64_t facilities_retrieved = 0;
  /// Invocations of Check_List / Check_Answer (paper Algorithm 2/3
  /// subroutines; the baseline counts its step-2 seeding as one
  /// check_answer call).
  std::int64_t check_list_calls = 0;
  std::int64_t check_answer_calls = 0;
  /// Logical high-water mark of tracked solver allocations, from the
  /// MemoryTracker installed by SolverScope.
  std::int64_t peak_memory_bytes = 0;
  /// Index-level counters attributed to this query. Hits/misses cover the
  /// oracle's door-distance memo (lock-free bucketed cache); they are
  /// attributed per-thread through the scope's counter sink, so concurrent
  /// queries against one shared oracle each see exactly their own traffic.
  std::uint64_t door_distance_evals = 0;
  std::uint64_t matrix_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Blocked min-plus kernel invocations and full-graph Dijkstra fallbacks
  /// attributed to this query (same per-thread sink as the fields above);
  /// the per-query cost ledger keys its production attribution on these.
  std::uint64_t kernel_invocations = 0;
  std::uint64_t dijkstra_fallbacks = 0;

  void AddNnStats(const NnSearchStats& nn) {
    queue_pushes += nn.queue_pushes;
    queue_pops += nn.queue_pops;
    distance_computations += nn.distance_computations;
  }

  std::string ToString() const;
};

/// Answer of an IFLS query.
///
/// `found == true`: `answer` is an optimal candidate and `objective` is the
/// solver's reported objective value for it (MinMax: the minimized maximum
/// distance; MinDist: the minimized total distance; MaxSum: the maximized
/// client count — see each solver's contract for reporting caveats).
///
/// `found == false`: no candidate location can improve the objective over
/// the existing facilities alone (paper: "no answer exists"); `objective`
/// then holds the no-new-facility value.
struct IflsResult {
  PartitionId answer = kInvalidPartition;
  bool found = false;
  double objective = 0.0;
  /// Filled by top-k requests (EfficientOptions::top_k > 1 or
  /// SolveBruteForceTopKMinMax): up to k candidates ascending by *exact*
  /// objective value. `answer`/`objective` mirror the first entry.
  std::vector<std::pair<PartitionId, double>> ranked;
  QueryStats stats;
};

/// RAII helper every solver uses: installs memory tracking plus a
/// thread-local oracle-counter sink, and on Finish() stamps elapsed time,
/// peak memory and the query's own index-counter totals into the stats.
/// Because both the tracker scope and the counter sink are thread-local, any
/// number of solvers may run concurrently against one shared oracle and each
/// query's stats remain exactly its own work.
class SolverScope {
 public:
  explicit SolverScope(QueryStats* stats);
  ~SolverScope();

  SolverScope(const SolverScope&) = delete;
  SolverScope& operator=(const SolverScope&) = delete;

  MemoryTracker* tracker() { return &tracker_; }

  /// Call once, at solver exit.
  void Finish();

 private:
  QueryStats* stats_;
  MemoryTracker tracker_;
  ScopedMemoryTracking scope_;
  OracleCounters counters_;
  ScopedOracleCounterSink counter_sink_;
  double start_seconds_;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Objective evaluation helpers (exact, index-backed; used by the brute-force
// solver and by tests to certify the optimized solvers' answers).
// ---------------------------------------------------------------------------

/// iDist(c, NN(c, Fe)) for one client; kInfDistance when Fe is empty.
double NearestExistingDistance(const IflsContext& ctx, const Client& c);

/// MinMax objective of candidate `n`:
///   max_c min(NEF(c), iDist(c, n)).
double EvaluateMinMax(const IflsContext& ctx, PartitionId n);

/// MinMax objective with no new facility: max_c NEF(c).
double NoFacilityMinMax(const IflsContext& ctx);

/// MinDist objective of candidate `n`: sum_c min(NEF(c), iDist(c, n)).
double EvaluateMinDist(const IflsContext& ctx, PartitionId n);

/// MinDist objective with no new facility: sum_c NEF(c).
double NoFacilityMinDist(const IflsContext& ctx);

/// MaxSum objective of candidate `n`: number of clients whose nearest
/// facility becomes `n`, i.e. #{c : iDist(c, n) < NEF(c)}.
double EvaluateMaxSum(const IflsContext& ctx, PartitionId n);

}  // namespace ifls

#endif  // IFLS_CORE_QUERY_H_
