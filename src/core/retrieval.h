#ifndef IFLS_CORE_RETRIEVAL_H_
#define IFLS_CORE_RETRIEVAL_H_

// Internal header: the one best-first retrieval core behind the MinMax,
// MinDist and MaxSum solvers (paper Algorithm 3 and §7). Not part of the
// public API surface; include efficient.h / mindist.h / maxsum.h instead.

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"
#include "src/common/memory_tracker.h"
#include "src/common/trace.h"
#include "src/core/efficient.h"
#include "src/core/query.h"
#include "src/index/minplus_kernels.h"

namespace ifls {
namespace internal {

/// A group of clients sharing one partition (or a singleton when grouping is
/// disabled). The traversal enqueues one entry stream per group.
struct Group {
  PartitionId partition = kInvalidPartition;
  TrackedVector<std::uint32_t> clients;
  std::int32_t alive = 0;
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
/// events prune their client (Lemma 5.1); candidate events raise the
/// candidate's count.
struct FacilityEvent {
  double dist = 0.0;
  std::uint32_t client = 0;
  PartitionId facility = kInvalidPartition;
  bool existing = false;
  // Candidate events sort before existing events at equal distance so a
  // prune's count rollback (entries with dist <= d_low) matches exactly the
  // set of already-processed events.
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
  /// Retrieved candidates and their exact distances.
  TrackedHashMap<PartitionId, double> candidates;
};

/// The single-pass bottom-up retrieval every objective shares: client
/// grouping, the best-first queue over the node hierarchy, retrieval records,
/// and the event heap drained in distance order, which raises d_low and
/// prunes clients (Lemma 5.1). The core also keeps each candidate's count:
/// the number of alive clients that have it retrieved within d_low, and a
/// histogram of those counts, so whether any candidate is exact (its count
/// equals alive_count()) is one lookup.
///
/// The objective is a template parameter, so the per-event path makes no
/// virtual calls. It supplies the answer test through these hooks:
///
///   // Stops the event drain (the answer is known).
///   bool done() const;
///   // Candidate `ord` retrieved for an alive client at `dist`; counts()
///   // already include it.
///   void OnCandidateEvent(std::size_t ord, double dist);
///   // One retrieval of a client being pruned, whose exact nearest-existing
///   // distance is `nef`. `counted` says whether it was in counts()[ord]
///   // (dist <= d_low); the core has already rolled it back.
///   void OnPrunedCandidate(std::size_t ord, double dist, bool counted,
///                          double nef);
///   // Client `ci` was pruned; every retrieval of it has been reported.
///   void OnPrune(std::uint32_t ci, double nef);
///
/// Correctness rests on three invariants: events are processed in ascending
/// distance order, every facility with iMinD <= Gd has been retrieved for
/// every active client, and a pruned client's unretrieved candidates are
/// provably no closer than its nearest existing facility. The switches in
/// EfficientOptions (all but top_k) select the ablation variants; MinDist
/// and MaxSum run with the defaults.
template <typename Objective>
class RetrievalCore {
 public:
  RetrievalCore(const IflsContext& ctx, const EfficientOptions& options,
                QueryStats* stats, Objective* objective)
      : ctx_(ctx),
        options_(options),
        oracle_(*ctx.oracle),
        venue_(ctx.venue()),
        stats_(*stats),
        objective_(*objective),
        index_(ctx.oracle, ctx.existing) {}

  /// Indexes the candidates and retrieves, at distance zero, the facility a
  /// client stands in (paper Algorithm 2 lines 1-10). Events stay queued.
  void Setup() {
    index_.AddCandidates(ctx_.candidates);
    ordinal_.assign(venue_.num_partitions(), -1);
    for (std::size_t i = 0; i < ctx_.candidates.size(); ++i) {
      ordinal_[static_cast<std::size_t>(ctx_.candidates[i])] =
          static_cast<std::int32_t>(i);
    }
    count_.assign(ctx_.candidates.size(), 0);
    with_k_.assign(ctx_.clients.size() + 1, 0);
    with_k_[0] = static_cast<std::int32_t>(ctx_.candidates.size());
    collected_.assign(ctx_.candidates.size(), 0);
    clients_.resize(ctx_.clients.size());
    alive_count_ = static_cast<std::int64_t>(ctx_.clients.size());
    for (std::size_t i = 0; i < ctx_.clients.size(); ++i) {
      const Client& c = ctx_.clients[i];
      if (index_.IsFacility(c.partition)) {
        Record(static_cast<std::uint32_t>(i), c.partition, 0.0);
      }
    }
  }

  /// Groups the active clients, sizes the visited bits and seeds the queue
  /// with each group's leaf.
  void SeedQueue() {
    std::unordered_map<PartitionId, std::uint32_t> group_of_partition;
    for (std::size_t i = 0; i < ctx_.clients.size(); ++i) {
      if (!clients_[i].active) continue;
      const PartitionId p = ctx_.clients[i].partition;
      std::uint32_t gi = static_cast<std::uint32_t>(groups_.size());
      if (options_.group_clients) {
        gi = group_of_partition.try_emplace(p, gi).first->second;
      }
      if (gi == groups_.size()) {
        groups_.emplace_back();
        groups_.back().partition = p;
      }
      Group& g = groups_[gi];
      g.clients.push_back(static_cast<std::uint32_t>(i));
      ++g.alive;
      clients_[i].group = gi;
    }
    num_nodes_ = oracle_.num_nodes();
    entities_per_group_ = num_nodes_ + venue_.num_partitions();
    visited_.assign((groups_.size() * entities_per_group_ + 63) / 64, 0);
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      const NodeId leaf = oracle_.LeafOf(groups_[gi].partition);
      // iMinD(p, leaf(p)) == 0 by containment.
      Push(static_cast<std::uint32_t>(gi), leaf, false, 0.0);
    }
  }

  bool exhausted() const { return queue_.empty(); }

  /// Pops the nearest entry, advances Gd to its key and expands it: a node
  /// enqueues its parent and children, a facility is retrieved for the
  /// group's active clients. Requires !exhausted().
  void Step() {
    const TraversalEntry top = queue_.top();
    queue_.pop();
    ++stats_.queue_pops;
    gd_ = top.key;
    Group& group = groups_[top.group];
    if (group.alive == 0) return;
    if (!top.is_partition) {
      ExpandNode(top.group, top.entity);
    } else if (index_.IsFacility(top.entity)) {
      // Non-facility partitions are dequeued only when subtree skipping is
      // disabled (paper line 19 enqueues every child); they carry no work
      // (paper line 10 guards on "I is a facility").
      AddFacilityToGroup(group, top.entity);
    }
  }

  /// Drains events with distance <= bound in ascending order, advancing
  /// d_low, pruning clients on existing-facility events and counting
  /// candidate events (paper lines 23-37), until the objective is done.
  void ProcessEvents(double bound) {
    while (!objective_.done() && !events_.empty() &&
           events_.top().dist <= bound) {
      const FacilityEvent e = events_.top();
      events_.pop();
      if (!clients_[e.client].alive) continue;
      d_low_ = std::max(d_low_, e.dist);
      if (e.existing) {
        Prune(e.client);
      } else {
        const std::size_t ord = ordinal(e.facility);
        MoveCount(ord, +1);
        objective_.OnCandidateEvent(ord, e.dist);
      }
    }
  }

  /// Queue exhausted: every facility has been retrieved for every active
  /// client. Drains the remaining events at Gd = infinity.
  void Flush() {
    gd_ = kInfDistance;
    ProcessEvents(kInfDistance);
  }

  double gd() const { return gd_; }
  std::int64_t alive_count() const { return alive_count_; }
  /// Per Fn ordinal: alive clients with the candidate retrieved within
  /// d_low.
  const TrackedVector<std::int32_t>& counts() const { return count_; }
  /// True when some candidate's count equals alive_count(): the only way
  /// an answer test can succeed, so a test may stop here when it is false.
  bool any_exact() const {
    return with_k_[static_cast<std::size_t>(alive_count_)] > 0;
  }
  /// Marks candidate `ord`, which must be exact, collected by a ranked
  /// objective (MinMax top-k and streams). It stays exact for the rest of
  /// the traversal: every alive client has it within d_low, so no event
  /// raises its count, and a prune lowers its count with alive_count().
  void Collect(std::size_t ord) {
    IFLS_DCHECK(count_[ord] == alive_count_ && !collected_[ord]);
    collected_[ord] = 1;
    ++num_collected_;
  }
  bool collected(std::size_t ord) const { return collected_[ord] != 0; }
  /// Exact candidates not yet collected, in O(1): a scan for newly common
  /// candidates finds none when this is 0. Defined between prunes and in
  /// OnPrune, not in OnPrunedCandidate, where the rollback is half done.
  std::int64_t uncollected_exact() const {
    return with_k_[static_cast<std::size_t>(alive_count_)] - num_collected_;
  }
  std::size_t ordinal(PartitionId candidate) const {
    const std::int32_t ord = ordinal_[static_cast<std::size_t>(candidate)];
    IFLS_DCHECK(ord >= 0);
    return static_cast<std::size_t>(ord);
  }
  const TrackedVector<ClientState>& clients() const { return clients_; }

 private:
  /// Index of (group, entity) in visited_: nodes first, then partitions.
  std::size_t VisitedBit(std::uint32_t group_index, std::int32_t entity,
                         bool is_partition) const {
    return group_index * entities_per_group_ + (is_partition ? num_nodes_ : 0) +
           static_cast<std::size_t>(entity);
  }

  void Push(std::uint32_t group_index, std::int32_t entity, bool is_partition,
            double key) {
    const std::size_t bit = VisitedBit(group_index, entity, is_partition);
    const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
    std::uint64_t& word = visited_[bit >> 6];
    if ((word & mask) != 0) return;
    word |= mask;
    queue_.push({key, group_index, entity, is_partition});
    ++stats_.queue_pushes;
  }

  bool Visited(std::uint32_t group_index, std::int32_t entity,
               bool is_partition) const {
    const std::size_t bit = VisitedBit(group_index, entity, is_partition);
    return ((visited_[bit >> 6] >> (bit & 63)) & 1) != 0;
  }

  /// Moves candidate `ord` to count + delta, keeping with_k_ in step.
  void MoveCount(std::size_t ord, std::int32_t delta) {
    --with_k_[static_cast<std::size_t>(count_[ord])];
    count_[ord] += delta;
    ++with_k_[static_cast<std::size_t>(count_[ord])];
  }

  void ExpandNode(std::uint32_t group_index, NodeId node_id) {
    Group& g = groups_[group_index];
    const NodeId parent = oracle_.Parent(node_id);
    if (parent != kInvalidNode && !Visited(group_index, parent, false)) {
      const double key = oracle_.PartitionToNode(g.partition, parent);
      ++stats_.lower_bound_computations;
      Push(group_index, parent, false, key);
    }
    if (oracle_.IsLeaf(node_id)) {
      for (PartitionId q : oracle_.NodePartitions(node_id)) {
        if (q == g.partition) continue;
        if (options_.skip_empty_subtrees && !index_.IsFacility(q)) continue;
        if (Visited(group_index, q, true)) continue;
        const double key = oracle_.PartitionToPartition(g.partition, q);
        ++stats_.lower_bound_computations;
        Push(group_index, q, true, key);
      }
    } else {
      for (NodeId ch : oracle_.Children(node_id)) {
        if (options_.skip_empty_subtrees && index_.SubtreeCount(ch) == 0) {
          continue;
        }
        if (Visited(group_index, ch, false)) continue;
        const double key = oracle_.PartitionToNode(g.partition, ch);
        ++stats_.lower_bound_computations;
        Push(group_index, ch, false, key);
      }
    }
  }

  void AddFacilityToGroup(Group& g, PartitionId facility) {
    const Partition& home = venue_.partition(g.partition);
    if (options_.reuse_group_distances && g.partition != facility) {
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
      // the exact two-term expression of the per-client formula, so answers
      // stay bit-identical across kernel backends.
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
        Record(ci, facility, dist);
      }
      return;
    }
    for (std::uint32_t ci : g.clients) {
      if (!clients_[ci].active) continue;
      const Client& c = ctx_.clients[ci];
      const double dist =
          oracle_.PointToPartition(c.position, c.partition, facility);
      ++stats_.distance_computations;
      Record(ci, facility, dist);
    }
  }

  void Record(std::uint32_t ci, PartitionId facility, double dist) {
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

  /// Lemma 5.1: the client's nearest existing facility is retrieved, so no
  /// unretrieved candidate can serve it better. Its counted retrievals
  /// (dist <= d_low) leave the candidates' counts.
  void Prune(std::uint32_t ci) {
    ClientState& state = clients_[ci];
    IFLS_DCHECK(state.alive);
    state.alive = false;
    ++stats_.clients_pruned;
    --alive_count_;
    if (options_.prune_clients) {
      state.active = false;
      if (!groups_.empty()) {
        Group& g = groups_[state.group];
        if (g.alive > 0) --g.alive;
      }
    }
    for (const auto& [facility, dist] : state.candidates) {
      const std::size_t ord = ordinal(facility);
      const bool counted = dist <= d_low_;
      if (counted) MoveCount(ord, -1);
      objective_.OnPrunedCandidate(ord, dist, counted, state.best_existing);
    }
    objective_.OnPrune(ci, state.best_existing);
  }

  const IflsContext& ctx_;
  const EfficientOptions options_;
  const DistanceOracle& oracle_;
  const Venue& venue_;
  QueryStats& stats_;
  Objective& objective_;
  FacilityIndex index_;

  TrackedVector<ClientState> clients_;
  TrackedVector<Group> groups_;
  std::priority_queue<TraversalEntry, TrackedVector<TraversalEntry>,
                      std::greater<TraversalEntry>>
      queue_;
  std::priority_queue<FacilityEvent, TrackedVector<FacilityEvent>,
                      std::greater<FacilityEvent>>
      events_;
  std::vector<std::int32_t> ordinal_;  // partition -> Fn ordinal
  TrackedVector<std::int32_t> count_;  // per Fn ordinal
  TrackedVector<std::int32_t> with_k_;  // per count k: candidates at k
  std::vector<char> collected_;         // per Fn ordinal, see Collect()
  std::int64_t num_collected_ = 0;
  /// One bit per (group, node or partition) already enqueued, group-major.
  TrackedVector<std::uint64_t> visited_;
  std::size_t num_nodes_ = 0;
  std::size_t entities_per_group_ = 0;
  std::vector<double> base_distances_;  // AddFacilityToGroup scratch
  std::vector<double> client_legs_;     // AddFacilityToGroup scratch

  double gd_ = 0.0;
  double d_low_ = 0.0;
  std::int64_t alive_count_ = 0;
};

/// Runs a MinDist/MaxSum-style policy (paper §7) over the retrieval core.
/// Besides the core's hooks the policy provides
///
///   explicit Policy(std::size_t num_candidates);
///   // Best certain candidate given the core's counts, `alive` uncovered
///   // clients and the current Gd; its ordinal, or -1 when undecided. A
///   // certain candidate is exact, so it is called only when some
///   // candidate is (RetrievalCore::any_exact).
///   std::int32_t TryDecide(const TrackedVector<std::int32_t>& counts,
///                          std::int64_t alive, double gd,
///                          double* objective) const;
///
/// The answer is tested once per queue pop (and once before the traversal
/// and after the final flush); each test counts one check_answer call and
/// scans the candidates only when one of them is exact.
template <typename Policy>
Result<IflsResult> SolveWithPolicy(const IflsContext& ctx,
                                   const char* span_name) {
  IFLS_RETURN_NOT_OK(ValidateContext(ctx));
  IflsResult result;
  SolverScope scope(&result.stats);
  TraceSpan span(TraceCategory::kSolver, span_name);
  if (!ctx.candidates.empty()) {
    Policy policy(ctx.candidates.size());
    RetrievalCore<Policy> core(ctx, EfficientOptions{}, &result.stats,
                               &policy);
    const auto try_finish = [&] {
      ++result.stats.check_answer_calls;
      if (!core.any_exact()) return false;
      double objective = 0.0;
      const std::int32_t ord = policy.TryDecide(
          core.counts(), core.alive_count(), core.gd(), &objective);
      if (ord < 0) return false;
      result.found = true;
      result.answer = ctx.candidates[static_cast<std::size_t>(ord)];
      result.objective = objective;
      return true;
    };
    const auto solve = [&] {
      core.Setup();
      core.ProcessEvents(0.0);
      if (try_finish()) return;
      core.SeedQueue();
      while (!core.exhausted()) {
        core.Step();
        core.ProcessEvents(core.gd());
        if (try_finish()) return;
      }
      core.Flush();
      if (try_finish()) return;
      // Unreachable for non-empty candidate sets in a connected venue: once
      // everything is retrieved every aggregate is exact.
      IFLS_LOG(FATAL) << span_name << " failed to converge";
    };
    solve();
  }
  scope.Finish();
  return result;
}

}  // namespace internal
}  // namespace ifls

#endif  // IFLS_CORE_RETRIEVAL_H_
