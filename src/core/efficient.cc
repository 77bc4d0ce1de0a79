#include "src/core/efficient.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/memory_tracker.h"
#include "src/common/trace.h"
#include "src/index/minplus_kernels.h"

namespace ifls {
namespace {

/// A group of clients sharing one partition (or a singleton when grouping is
/// disabled). The traversal enqueues one entry stream per group.
struct Group {
  PartitionId partition = kInvalidPartition;
  TrackedVector<std::uint32_t> clients;
  std::int32_t alive = 0;
  TrackedHashSet<std::int64_t> visited;
};

/// Priority-queue entry of the bottom-up traversal: (group's partition,
/// indoor entity I, iMinD) — paper Algorithm 3.
struct TraversalEntry {
  double key = 0.0;
  std::uint32_t group = 0;
  std::int32_t entity = -1;  // NodeId, or PartitionId when is_partition
  bool is_partition = false;
  bool operator>(const TraversalEntry& other) const {
    return key > other.key;
  }
};

/// A retrieved (client, facility, distance) triple, processed in ascending
/// distance order once the global distance Gd passes it. Existing-facility
/// events prune their client (Lemma 5.1); candidate events raise coverage.
struct FacilityEvent {
  double dist = 0.0;
  std::uint32_t client = 0;
  PartitionId facility = kInvalidPartition;
  bool existing = false;
  // Candidate events sort before existing events at equal distance so a
  // prune's coverage rollback (entries with dist <= d_low) matches exactly
  // the set of already-processed events.
  bool operator>(const FacilityEvent& other) const {
    if (dist != other.dist) return dist > other.dist;
    return existing && !other.existing;
  }
};

struct ClientState {
  /// Counts toward answer detection (not yet covered by Lemma 5.1).
  bool alive = true;
  /// Still receives distance computations. With pruning enabled this flips
  /// together with `alive`; the no-pruning ablation keeps clients active so
  /// the answer stays correct while the saved work is measured.
  bool active = true;
  double best_existing = kInfDistance;
  double best_any = kInfDistance;
  std::uint32_t group = 0;
  TrackedHashMap<PartitionId, double> candidates;
};

std::int64_t EncodeEntity(std::int32_t entity, bool is_partition) {
  return is_partition ? (static_cast<std::int64_t>(1) << 32) + entity
                      : entity;
}

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
        venue_(ctx.venue()),
        result_(result),
        stats_(result->stats),
        index_(ctx.oracle, ctx.existing),
        streaming_(streaming) {}

  void Run() {
    TraceSpan run_span(TraceCategory::kSolver, "efficient");
    Setup();
    if (!done_) Advance(0);
  }

  void Setup() {
    TraceSpan setup_span(TraceCategory::kSolver, "efficient/setup");
    index_.AddCandidates(ctx_.candidates);
    candidate_ordinal_.assign(venue_.num_partitions(), -1);
    for (std::size_t i = 0; i < ctx_.candidates.size(); ++i) {
      candidate_ordinal_[static_cast<std::size_t>(ctx_.candidates[i])] =
          static_cast<std::int32_t>(i);
    }
    coverage_.assign(ctx_.candidates.size(), 0);

    candidate_collected_.assign(ctx_.candidates.size(), 0);

    InitClients();
    if (alive_count_ == 0) {
      FinishNoAnswer();
      return;
    }
    // Paper Algorithm 2 lines 1-10: clients located inside facilities are
    // served (and possibly pruned) before the traversal starts.
    ProcessEvents(0.0);
    if (done_) return;

    BuildGroups();
    SeedQueue();
  }

  /// Paper Algorithm 3 main loop. In streaming mode the loop pauses (and can
  /// be resumed by calling Advance again) once `target_certified` collected
  /// candidates are certified final; the pause point is a loop head, where
  /// all events with distance <= Gd have been drained.
  void Advance(std::size_t target_certified) {
    TraceSpan traversal_span(TraceCategory::kSolver, "efficient/traversal");
    while (!done_ && !queue_.empty()) {
      if (streaming_ && CertifiedCount() >= target_certified) return;
      const TraversalEntry top = queue_.top();
      queue_.pop();
      ++stats_.queue_pops;
      gd_ = top.key;
      Group& group = groups_[top.group];
      if (group.alive > 0) {
        if (top.is_partition) {
          // Non-facility partitions can be dequeued when subtree skipping is
          // disabled (paper line 19 enqueues every child); they carry no
          // work (paper line 10 guards on "I is a facility").
          if (index_.IsFacility(top.entity)) {
            AddFacilityToGroup(group, top.entity);
          }
        } else {
          ExpandNode(top.group, top.entity);
        }
      }
      UpdateIsFirst();
      ProcessEvents(gd_);
    }
    if (!done_) {
      // Queue exhausted: every facility has been retrieved for every
      // surviving client. Flush the remaining events.
      gd_ = kInfDistance;
      ProcessEvents(kInfDistance);
    }
    if (!done_) FinishNoAnswer();
  }

  bool done() const { return done_; }

  /// Streaming: collected candidates whose rank can no longer change. A
  /// collected objective is exact and <= d_low at collection; an uncollected
  /// candidate still has an alive client whose distance to it is >= Gd, so
  /// its objective is >= Gd. Strictly-below-Gd entries are therefore final
  /// (boundary ties at == Gd are not, and stay uncertified until Gd moves).
  std::size_t CertifiedCount() const {
    if (done_) return collected_.size();
    std::size_t certified = 0;
    for (const auto& entry : collected_) {
      if (entry.second < gd_) ++certified;
    }
    return certified;
  }

  /// Streaming: the collection log (sorted by FinishRanked once done).
  const std::vector<std::pair<PartitionId, double>>& collected() const {
    return collected_;
  }

 private:
  // ---- Setup -----------------------------------------------------------

  void InitClients() {
    clients_.resize(ctx_.clients.size());
    pending_first_.reserve(ctx_.clients.size());
    for (std::size_t i = 0; i < ctx_.clients.size(); ++i) {
      pending_first_.push_back(static_cast<std::uint32_t>(i));
    }
    alive_count_ = static_cast<std::int64_t>(ctx_.clients.size());
    for (std::size_t i = 0; i < ctx_.clients.size(); ++i) {
      const Client& c = ctx_.clients[i];
      if (index_.IsFacility(c.partition)) {
        RecordRetrieval(static_cast<std::uint32_t>(i), c.partition, 0.0);
      }
    }
  }

  void BuildGroups() {
    if (options_.group_clients) {
      std::unordered_map<PartitionId, std::uint32_t> group_of_partition;
      for (std::size_t i = 0; i < ctx_.clients.size(); ++i) {
        if (!clients_[i].active) continue;
        const PartitionId p = ctx_.clients[i].partition;
        auto [it, inserted] = group_of_partition.try_emplace(
            p, static_cast<std::uint32_t>(groups_.size()));
        if (inserted) {
          groups_.emplace_back();
          groups_.back().partition = p;
        }
        Group& g = groups_[it->second];
        g.clients.push_back(static_cast<std::uint32_t>(i));
        ++g.alive;
        clients_[i].group = it->second;
      }
    } else {
      for (std::size_t i = 0; i < ctx_.clients.size(); ++i) {
        if (!clients_[i].active) continue;
        groups_.emplace_back();
        Group& g = groups_.back();
        g.partition = ctx_.clients[i].partition;
        g.clients.push_back(static_cast<std::uint32_t>(i));
        g.alive = 1;
        clients_[i].group = static_cast<std::uint32_t>(groups_.size() - 1);
      }
    }
  }

  void SeedQueue() {
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      Group& g = groups_[gi];
      const NodeId leaf = oracle_.LeafOf(g.partition);
      // iMinD(p, leaf(p)) == 0 by containment.
      Push(static_cast<std::uint32_t>(gi), leaf, false, 0.0);
    }
  }

  // ---- Traversal -------------------------------------------------------

  void Push(std::uint32_t group_index, std::int32_t entity, bool is_partition,
            double key) {
    Group& g = groups_[group_index];
    if (!g.visited.insert(EncodeEntity(entity, is_partition)).second) return;
    queue_.push({key, group_index, entity, is_partition});
    ++stats_.queue_pushes;
  }

  bool Visited(const Group& g, std::int32_t entity, bool is_partition) const {
    return g.visited.contains(EncodeEntity(entity, is_partition));
  }

  void ExpandNode(std::uint32_t group_index, NodeId node_id) {
    Group& g = groups_[group_index];
    const NodeId parent = oracle_.Parent(node_id);
    if (parent != kInvalidNode && !Visited(g, parent, false)) {
      const double key = oracle_.PartitionToNode(g.partition, parent);
      ++stats_.lower_bound_computations;
      Push(group_index, parent, false, key);
    }
    if (oracle_.IsLeaf(node_id)) {
      for (PartitionId q : oracle_.NodePartitions(node_id)) {
        if (q == g.partition) continue;
        if (options_.skip_empty_subtrees && !index_.IsFacility(q)) continue;
        if (Visited(g, q, true)) continue;
        const double key = oracle_.PartitionToPartition(g.partition, q);
        ++stats_.lower_bound_computations;
        Push(group_index, q, true, key);
      }
    } else {
      for (NodeId ch : oracle_.Children(node_id)) {
        if (options_.skip_empty_subtrees && index_.SubtreeCount(ch) == 0) {
          continue;
        }
        if (Visited(g, ch, false)) continue;
        const double key = oracle_.PartitionToNode(g.partition, ch);
        ++stats_.lower_bound_computations;
        Push(group_index, ch, false, key);
      }
    }
  }

  void AddFacilityToGroup(Group& g, PartitionId facility) {
    const Partition& home = venue_.partition(g.partition);
    const bool reuse =
        options_.reuse_group_distances && g.partition != facility;
    if (reuse) {
      // Generalized Case-1 reuse: one door-to-facility base distance per
      // home door serves every client of the group; a client's distance is
      // min over doors of (local leg + base). Identical to the per-client
      // formula, with the door-to-door compositions hoisted out.
      base_distances_.clear();
      base_distances_.reserve(home.doors.size());
      for (DoorId d : home.doors) {
        base_distances_.push_back(oracle_.DoorToPartition(d, facility));
      }
      ++stats_.distance_computations;
      // Per-client evaluation is a pairwise min-plus reduce: fill the local
      // legs once, then let the kernel scan legs[i] + base[i]. The sum is
      // the exact two-term expression of the original loop, so answers stay
      // bit-identical across kernel backends.
      const std::size_t n_doors = home.doors.size();
      client_legs_.resize(n_doors);
      for (std::uint32_t ci : g.clients) {
        if (!clients_[ci].active) continue;
        const Client& c = ctx_.clients[ci];
        for (std::size_t i = 0; i < n_doors; ++i) {
          client_legs_[i] =
              PointToDoorDistance(c.position, venue_.door(home.doors[i]));
        }
        const double dist = kernels::MinPlusPairwise(
            client_legs_.data(), base_distances_.data(), n_doors);
        CountKernelInvocation();
        RecordRetrieval(ci, facility, dist);
      }
      return;
    }
    for (std::uint32_t ci : g.clients) {
      if (!clients_[ci].active) continue;
      const Client& c = ctx_.clients[ci];
      const double dist =
          oracle_.PointToPartition(c.position, c.partition, facility);
      ++stats_.distance_computations;
      RecordRetrieval(ci, facility, dist);
    }
  }

  // ---- Retrieval lists and events ---------------------------------------

  void RecordRetrieval(std::uint32_t ci, PartitionId facility, double dist) {
    ClientState& state = clients_[ci];
    const bool existing = index_.IsExisting(facility);
    if (existing) {
      state.best_existing = std::min(state.best_existing, dist);
    } else {
      state.candidates.emplace(facility, dist);
    }
    state.best_any = std::min(state.best_any, dist);
    events_.push({dist, ci, facility, existing});
    ++stats_.facilities_retrieved;
  }

  /// Drains events with distance <= bound, in ascending order, advancing
  /// d_low, pruning clients on existing-facility events (Lemma 5.1), and
  /// checking for a common candidate after each step (paper lines 23-37).
  void ProcessEvents(double bound) {
    while (!done_ && !events_.empty() && events_.top().dist <= bound) {
      const FacilityEvent e = events_.top();
      events_.pop();
      if (!clients_[e.client].alive) continue;
      d_low_ = std::max(d_low_, e.dist);
      if (e.existing) {
        PruneClient(e.client);
        if (done_) return;
        // A prune removes constraints: several candidates may become
        // common simultaneously.
        CheckAnswerFullScan();
      } else {
        const std::int32_t ord =
            candidate_ordinal_[static_cast<std::size_t>(e.facility)];
        IFLS_DCHECK(ord >= 0);
        if (++coverage_[static_cast<std::size_t>(ord)] == alive_count_ &&
            !candidate_collected_[static_cast<std::size_t>(ord)]) {
          CheckAnswerSingle(e.facility);
        }
      }
      ++stats_.check_answer_calls;
    }
  }

  void PruneClient(std::uint32_t ci) {
    ClientState& state = clients_[ci];
    IFLS_DCHECK(state.alive);
    state.alive = false;
    ++stats_.clients_pruned;
    pruned_floor_ = std::max(pruned_floor_, state.best_existing);
    pruned_clients_.push_back(ci);
    --alive_count_;
    if (options_.prune_clients) {
      state.active = false;
      if (!groups_.empty()) {
        Group& g = groups_[state.group];
        if (g.alive > 0) --g.alive;
      }
    }
    // Remove the client's counted coverage contributions.
    for (const auto& [facility, dist] : state.candidates) {
      if (dist <= d_low_) {
        const std::int32_t ord =
            candidate_ordinal_[static_cast<std::size_t>(facility)];
        --coverage_[static_cast<std::size_t>(ord)];
      }
    }
    if (alive_count_ == 0) FinishNoAnswer();
  }

  // ---- Answer detection --------------------------------------------------

  void CheckAnswerSingle(PartitionId candidate) {
    FinishWithCommonCandidates({candidate});
  }

  void CheckAnswerFullScan() {
    if (alive_count_ == 0) return;
    std::vector<PartitionId> common;
    for (std::size_t i = 0; i < ctx_.candidates.size(); ++i) {
      if (coverage_[i] == alive_count_ && !candidate_collected_[i]) {
        common.push_back(ctx_.candidates[i]);
      }
    }
    if (!common.empty()) FinishWithCommonCandidates(common);
  }

  /// max distance from the candidate to the surviving clients (all within
  /// d_low by construction).
  double AliveMaxDistance(PartitionId candidate) const {
    double worst = 0.0;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (!clients_[i].alive) continue;
      const auto it = clients_[i].candidates.find(candidate);
      IFLS_DCHECK(it != clients_[i].candidates.end());
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
      const auto ord = static_cast<std::size_t>(
          candidate_ordinal_[static_cast<std::size_t>(n)]);
      if (candidate_collected_[ord]) continue;
      candidate_collected_[ord] = 1;
      collected_.emplace_back(n, ExactObjective(n, AliveMaxDistance(n)));
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
      worst = std::max(worst, std::min(clients_[ci].best_existing, dn));
    }
    return worst;
  }

  void FinishNoAnswer() {
    if (ranked_mode()) {
      // Rank whatever became common; when every client is covered the
      // remaining candidates' objectives are fully determined by the
      // pruned clients, so the ranking can be completed exactly.
      if (alive_count_ == 0) {
        for (std::size_t i = 0; i < ctx_.candidates.size(); ++i) {
          if (candidate_collected_[i]) continue;
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
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i].alive) {
        objective = std::max(objective, clients_[i].best_existing);
      }
    }
    result_->found = false;
    result_->answer = kInvalidPartition;
    result_->objective = objective;
    done_ = true;
  }

  // ---- checkList bookkeeping (paper lines 23-25) -------------------------

  void UpdateIsFirst() {
    if (is_first_) return;
    ++stats_.check_list_calls;
    std::size_t i = 0;
    while (i < pending_first_.size()) {
      const std::uint32_t ci = pending_first_[i];
      if (!clients_[ci].alive || clients_[ci].best_any <= gd_) {
        pending_first_[i] = pending_first_.back();
        pending_first_.pop_back();
      } else {
        ++i;
      }
    }
    is_first_ = pending_first_.empty();
  }

  // ---- Members -----------------------------------------------------------

  const IflsContext& ctx_;
  const EfficientOptions& options_;
  const DistanceOracle& oracle_;
  const Venue& venue_;
  IflsResult* result_;
  QueryStats& stats_;
  FacilityIndex index_;

  TrackedVector<ClientState> clients_;
  TrackedVector<Group> groups_;
  std::priority_queue<TraversalEntry,
                      TrackedVector<TraversalEntry>,
                      std::greater<TraversalEntry>>
      queue_;
  std::priority_queue<FacilityEvent, TrackedVector<FacilityEvent>,
                      std::greater<FacilityEvent>>
      events_;
  std::vector<std::int32_t> candidate_ordinal_;  // partition -> Fn ordinal
  TrackedVector<std::int32_t> coverage_;         // per Fn ordinal
  std::vector<char> candidate_collected_;        // top-k bookkeeping
  std::vector<std::pair<PartitionId, double>> collected_;
  std::vector<double> base_distances_;           // AddFacilityToGroup scratch
  std::vector<double> client_legs_;              // AddFacilityToGroup scratch
  TrackedVector<std::uint32_t> pending_first_;
  TrackedVector<std::uint32_t> pruned_clients_;

  double gd_ = 0.0;
  double d_low_ = 0.0;
  double pruned_floor_ = 0.0;
  std::int64_t alive_count_ = 0;
  bool is_first_ = false;
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
