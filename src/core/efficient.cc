#include "src/core/efficient.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/memory_tracker.h"
#include "src/common/trace.h"
#include "src/core/retrieval.h"

namespace ifls {
namespace {

/// MinMax over the retrieval core (paper Algorithms 2 + 3): checkList
/// (UpdateIsFirst), the answer checks on each event, the exact tie-break,
/// top-k collection and the streaming pause behind RankedStream.
class EfficientSolver {
 public:
  /// `streaming == true` puts the solver under external pacing (RankedStream):
  /// every candidate is collected with its exact objective (top_k is ignored,
  /// nothing truncates) and Advance() can pause the traversal between pages.
  EfficientSolver(const IflsContext& ctx, const EfficientOptions& options,
                  IflsResult* result, bool streaming = false)
      : ctx_(ctx),
        options_(options),
        oracle_(*ctx.oracle),
        result_(result),
        stats_(result->stats),
        core_(ctx, options, &result->stats, this),
        streaming_(streaming) {}

  void Run() {
    TraceSpan run_span(TraceCategory::kSolver, "efficient");
    Setup();
    if (!done_) Advance(0);
  }

  void Setup() {
    TraceSpan setup_span(TraceCategory::kSolver, "efficient/setup");
    core_.Setup();
    if (core_.alive_count() == 0) {
      FinishNoAnswer();
      return;
    }
    // Paper Algorithm 2 lines 1-10: clients located inside facilities are
    // served (and possibly pruned) before the traversal starts.
    core_.ProcessEvents(0.0);
    if (done_) return;
    core_.SeedQueue();
  }

  /// Paper Algorithm 3 main loop. In streaming mode the loop pauses (and can
  /// be resumed by calling Advance again) once `target_certified` collected
  /// candidates are certified final; the pause point is a loop head, where
  /// all events with distance <= Gd have been drained.
  void Advance(std::size_t target_certified) {
    TraceSpan traversal_span(TraceCategory::kSolver, "efficient/traversal");
    while (!done_ && !core_.exhausted()) {
      if (streaming_ && CertifiedCount() >= target_certified) return;
      core_.Step();
      UpdateIsFirst();
      core_.ProcessEvents(core_.gd());
    }
    if (!done_) core_.Flush();
    if (!done_) FinishNoAnswer();
  }

  bool done() const { return done_; }

  /// Streaming: collected candidates whose rank can no longer change. A
  /// collected objective is exact and <= d_low at collection; an uncollected
  /// candidate still has an alive client whose distance to it is >= Gd, so
  /// its objective is >= Gd. Strictly-below-Gd entries are therefore final
  /// (boundary ties at == Gd are not, and stay uncertified until Gd moves).
  /// Gd only rises and a collected objective is fixed, so an entry once
  /// certified stays certified: the uncertified objectives wait in a
  /// min-heap and each is popped once.
  std::size_t CertifiedCount() {
    if (done_) return collected_.size();
    while (!uncertified_.empty() && uncertified_.top() < core_.gd()) {
      uncertified_.pop();
      ++certified_;
    }
    return certified_;
  }

  /// Streaming: the collection log (sorted by FinishRanked once done).
  const std::vector<std::pair<PartitionId, double>>& collected() const {
    return collected_;
  }

  // ---- Retrieval core hooks ---------------------------------------------

  void OnCandidateEvent(std::size_t ord, double /*dist*/) {
    if (core_.counts()[ord] == core_.alive_count() && !core_.collected(ord)) {
      CheckAnswerSingle(ctx_.candidates[ord]);
    }
    ++stats_.check_answer_calls;
  }

  void OnPrunedCandidate(std::size_t /*ord*/, double /*dist*/,
                         bool /*counted*/, double /*nef*/) {}

  void OnPrune(std::uint32_t ci, double nef) {
    pruned_floor_ = std::max(pruned_floor_, nef);
    pruned_clients_.push_back(ci);
    if (core_.alive_count() == 0) FinishNoAnswer();
    if (done_) return;
    // A prune removes constraints: several candidates may become common
    // simultaneously.
    CheckAnswerFullScan();
    ++stats_.check_answer_calls;
  }

 private:
  // ---- Answer detection --------------------------------------------------

  void CheckAnswerSingle(PartitionId candidate) {
    FinishWithCommonCandidates({candidate});
  }

  /// Collected candidates stay exact, so in ranked mode any_exact() holds
  /// after the first collection; the scan runs only when an exact
  /// candidate is still uncollected.
  void CheckAnswerFullScan() {
    if (core_.uncollected_exact() == 0) return;
    std::vector<PartitionId> common;
    for (std::size_t i = 0; i < ctx_.candidates.size(); ++i) {
      if (core_.counts()[i] == core_.alive_count() && !core_.collected(i)) {
        common.push_back(ctx_.candidates[i]);
      }
    }
    if (!common.empty()) FinishWithCommonCandidates(common);
  }

  /// max distance from the candidate to the surviving clients (all within
  /// d_low by construction).
  double AliveMaxDistance(PartitionId candidate) const {
    double worst = 0.0;
    for (const internal::ClientState& client : core_.clients()) {
      if (!client.alive) continue;
      const auto it = client.candidates.find(candidate);
      IFLS_DCHECK(it != client.candidates.end());
      worst = std::max(worst, it->second);
    }
    return worst;
  }

  /// Ranked collection applies in explicit top-k mode and always under
  /// streaming (a stream ranks the full candidate set).
  bool ranked_mode() const { return streaming_ || options_.top_k > 1; }

  void FinishWithCommonCandidates(const std::vector<PartitionId>& common) {
    IFLS_DCHECK(!common.empty());
    if (ranked_mode()) {
      CollectForTopK(common);
      return;
    }
    PartitionId best = common.front();
    double best_alive_max = AliveMaxDistance(best);
    if (common.size() > 1) {
      // Exact tie-break: candidates that became common at the same d_low
      // step are compared on their full objective, including the pruned
      // clients' min(NEF, distance) contributions.
      double best_obj = ExactObjective(best, best_alive_max);
      for (std::size_t i = 1; i < common.size(); ++i) {
        const double alive_max = AliveMaxDistance(common[i]);
        const double obj = ExactObjective(common[i], alive_max);
        if (obj < best_obj) {
          best_obj = obj;
          best = common[i];
          best_alive_max = alive_max;
        }
      }
    }
    result_->found = true;
    result_->answer = best;
    result_->objective = std::max(best_alive_max, pruned_floor_);
    done_ = true;
  }

  /// Top-k mode: record the newly common candidates with their exact
  /// objectives and finish once k are collected. Every collected objective
  /// is <= the d_low at its collection, and every uncollected candidate's
  /// objective exceeds the current d_low, so k collected candidates are
  /// exactly the top k.
  void CollectForTopK(const std::vector<PartitionId>& common) {
    for (PartitionId n : common) {
      const std::size_t ord = core_.ordinal(n);
      if (core_.collected(ord)) continue;
      core_.Collect(ord);
      collected_.emplace_back(n, ExactObjective(n, AliveMaxDistance(n)));
      if (streaming_) uncertified_.push(collected_.back().second);
    }
    if (!streaming_ &&
        collected_.size() >= static_cast<std::size_t>(options_.top_k)) {
      FinishRanked();
    }
  }

  /// Sorts the collected candidates, truncates to k (except under streaming,
  /// which ranks everything) and publishes them. Equal objectives rank by
  /// ascending partition id so pagination boundaries are deterministic.
  void FinishRanked() {
    std::sort(collected_.begin(), collected_.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second < b.second;
                return a.first < b.first;
              });
    if (!streaming_ &&
        collected_.size() > static_cast<std::size_t>(options_.top_k)) {
      collected_.resize(static_cast<std::size_t>(options_.top_k));
    }
    result_->ranked.assign(collected_.begin(), collected_.end());
    result_->found = !collected_.empty();
    if (result_->found) {
      result_->answer = collected_.front().first;
      result_->objective = collected_.front().second;
    }
    done_ = true;
  }

  double ExactObjective(PartitionId candidate, double alive_max) {
    double worst = alive_max;
    for (std::uint32_t ci : pruned_clients_) {
      const Client& c = ctx_.clients[ci];
      const double dn =
          oracle_.PointToPartition(c.position, c.partition, candidate);
      ++stats_.distance_computations;
      worst = std::max(worst, std::min(core_.clients()[ci].best_existing, dn));
    }
    return worst;
  }

  void FinishNoAnswer() {
    if (ranked_mode()) {
      // Rank whatever became common; when every client is covered the
      // remaining candidates' objectives are fully determined by the
      // pruned clients, so the ranking can be completed exactly.
      if (core_.alive_count() == 0) {
        for (std::size_t i = 0; i < ctx_.candidates.size(); ++i) {
          if (core_.collected(i)) continue;
          collected_.emplace_back(ctx_.candidates[i],
                                  ExactObjective(ctx_.candidates[i], 0.0));
        }
      }
      FinishRanked();
      return;
    }
    // Either every client was pruned (no candidate can improve the
    // objective) or there are no candidates at all.
    double objective = pruned_floor_;
    for (const internal::ClientState& client : core_.clients()) {
      if (client.alive) objective = std::max(objective, client.best_existing);
    }
    result_->found = false;
    result_->answer = kInvalidPartition;
    result_->objective = objective;
    done_ = true;
  }

  // ---- checkList bookkeeping (paper lines 23-25) -------------------------

  /// A client is pending until it is pruned or has a facility within Gd.
  /// alive and best_any only fall and Gd only rises, so a client that
  /// stops pending never pends again: one cursor walks the clients once,
  /// and isFirst holds once it has passed them all.
  void UpdateIsFirst() {
    const TrackedVector<internal::ClientState>& clients = core_.clients();
    if (first_pending_ == clients.size()) return;
    ++stats_.check_list_calls;
    while (first_pending_ < clients.size() &&
           (!clients[first_pending_].alive ||
            clients[first_pending_].best_any <= core_.gd())) {
      ++first_pending_;
    }
  }

  // ---- Members -----------------------------------------------------------

  const IflsContext& ctx_;
  const EfficientOptions& options_;
  const DistanceOracle& oracle_;
  IflsResult* result_;
  QueryStats& stats_;
  internal::RetrievalCore<EfficientSolver> core_;

  std::vector<std::pair<PartitionId, double>> collected_;
  /// Streaming: objectives of collected entries not yet below Gd.
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      uncertified_;
  std::size_t certified_ = 0;
  std::size_t first_pending_ = 0;  // checkList cursor
  TrackedVector<std::uint32_t> pruned_clients_;

  double pruned_floor_ = 0.0;
  bool done_ = false;
  const bool streaming_ = false;
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<IflsResult> SolveEfficient(const IflsContext& ctx,
                                  const EfficientOptions& options) {
  IFLS_RETURN_NOT_OK(ValidateContext(ctx));
  IflsResult result;
  SolverScope scope(&result.stats);
  EfficientSolver solver(ctx, options, &result);
  solver.Run();
  scope.Finish();
  return result;
}

// ---------------------------------------------------------------------------
// RankedStream
// ---------------------------------------------------------------------------

struct RankedStream::Impl {
  IflsContext ctx;          // owned copy; the oracle pointer is borrowed
  EfficientOptions options;
  IflsResult scratch;       // solver publish target; scratch.stats cumulates
  /// One tracker for the stream's whole lifetime: the solver's tracked
  /// containers allocate and release across many Next() calls (possibly
  /// interleaved with other solves on the same thread), so every entry
  /// point re-installs this tracker instead of using a per-call SolverScope.
  MemoryTracker tracker;
  std::unique_ptr<EfficientSolver> solver;
  /// collected() mirrored in (objective, id) order; certified entries form
  /// a stable prefix, so emitted pages never reorder.
  std::vector<std::pair<PartitionId, double>> sorted;
  std::size_t emitted = 0;

  ~Impl() {
    if (solver != nullptr) {
      ScopedMemoryTracking scope(&tracker);
      solver.reset();
    }
  }

  /// A stream is exhausted once the traversal has drained and everything
  /// collected was emitted — or once |Fn| entries went out: every candidate
  /// appears exactly once in the full ranking, so a paused traversal can
  /// have nothing left to certify either.
  bool Exhausted() const {
    return emitted >= ctx.candidates.size() ||
           (solver->done() && emitted >= solver->collected().size());
  }

  void ResortCollected() {
    sorted.assign(solver->collected().begin(), solver->collected().end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second < b.second;
                return a.first < b.first;
              });
  }

  /// Stamps one entry's elapsed time, memory high-water mark and oracle
  /// counters into the cumulative stats (the per-call analogue of
  /// SolverScope::Finish).
  void Accumulate(double start_seconds, const OracleCounters& counters) {
    QueryStats& stats = scratch.stats;
    stats.elapsed_seconds += NowSeconds() - start_seconds;
    stats.peak_memory_bytes =
        std::max(stats.peak_memory_bytes, tracker.peak_bytes());
    stats.door_distance_evals += counters.door_distance_evals;
    stats.matrix_lookups += counters.matrix_lookups;
    stats.cache_hits += counters.cache_hits;
    stats.cache_misses += counters.cache_misses;
    stats.kernel_invocations += counters.kernel_invocations;
    stats.dijkstra_fallbacks += counters.dijkstra_fallbacks;
  }
};

RankedStream::RankedStream(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

RankedStream::~RankedStream() = default;

Result<std::unique_ptr<RankedStream>> RankedStream::Open(
    const IflsContext& ctx, const EfficientOptions& options) {
  IFLS_RETURN_NOT_OK(ValidateContext(ctx));
  auto impl = std::make_unique<Impl>();
  impl->ctx = ctx;
  impl->options = options;
  const double start = NowSeconds();
  OracleCounters counters;
  {
    ScopedMemoryTracking mem(&impl->tracker);
    ScopedOracleCounterSink sink(&counters);
    impl->solver = std::make_unique<EfficientSolver>(
        impl->ctx, impl->options, &impl->scratch, /*streaming=*/true);
    impl->solver->Setup();
  }
  impl->Accumulate(start, counters);
  return std::unique_ptr<RankedStream>(new RankedStream(std::move(impl)));
}

RankedStream::Page RankedStream::Next(std::size_t m) {
  Impl& impl = *impl_;
  Page page;
  if (m == 0) {
    page.exhausted = impl.Exhausted();
    return page;
  }
  TraceSpan span(TraceCategory::kSolver, "efficient/stream_next");
  const double start = NowSeconds();
  OracleCounters counters;
  {
    ScopedMemoryTracking mem(&impl.tracker);
    ScopedOracleCounterSink sink(&counters);
    if (!impl.solver->done()) impl.solver->Advance(impl.emitted + m);
  }
  impl.Accumulate(start, counters);

  impl.ResortCollected();
  const std::size_t certified =
      impl.solver->done() ? impl.sorted.size() : impl.solver->CertifiedCount();
  const std::size_t limit = std::min(certified, impl.emitted + m);
  page.items.assign(impl.sorted.begin() + static_cast<std::ptrdiff_t>(impl.emitted),
                    impl.sorted.begin() + static_cast<std::ptrdiff_t>(limit));
  impl.emitted = limit;
  page.exhausted = impl.Exhausted();
  return page;
}

bool RankedStream::exhausted() const { return impl_->Exhausted(); }

std::size_t RankedStream::emitted() const { return impl_->emitted; }

std::size_t RankedStream::total_candidates() const {
  return impl_->ctx.candidates.size();
}

const QueryStats& RankedStream::stats() const { return impl_->scratch.stats; }

}  // namespace ifls
