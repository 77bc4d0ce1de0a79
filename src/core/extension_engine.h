#ifndef IFLS_CORE_EXTENSION_ENGINE_H_
#define IFLS_CORE_EXTENSION_ENGINE_H_

// Internal header: shared incremental-retrieval engine behind the MinDist
// and MaxSum solvers (paper §7). Not part of the public API surface; include
// mindist.h / maxsum.h instead.

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"
#include "src/common/memory_tracker.h"
#include "src/core/query.h"

namespace ifls {
namespace internal {

/// Retrieved candidates and their exact distances, as the policies see them.
using RetrievedMap = TrackedHashMap<PartitionId, double>;

/// Generic single-pass bottom-up retrieval over a distance oracle's node
/// hierarchy (the paper's Algorithm 3 traversal) parameterized by an
/// objective policy. The policy
/// maintains per-candidate aggregates and decides when the answer is
/// certain:
///
///   struct Policy {
///     void Init(std::size_t num_candidates);
///     // Candidate `ord` retrieved for a surviving client at distance d.
///     void OnCandidateEvent(std::size_t ord, double dist);
///     // Client pruned (Lemma 5.1). `nef` is its exact nearest-existing
///     // distance; `retrieved` holds its candidate retrievals; entries with
///     // dist <= d_low were previously counted via OnCandidateEvent.
///     void OnPrune(double nef, const RetrievedMap& retrieved, double d_low,
///                  const std::vector<std::int32_t>& ordinal_of_partition);
///     // Best certain candidate given `alive` uncovered clients and the
///     // current global distance; returns ordinal or -1 when undecided.
///     std::int32_t TryDecide(std::int64_t alive, double gd,
///                            double* objective) const;
///   };
///
/// Correctness rests on the same invariants as the MinMax solver: events are
/// processed in ascending distance order, every facility with iMinD <= Gd
/// has been retrieved for every surviving client, and a pruned client's
/// unretrieved candidates are provably no closer than its NEF.
template <typename Policy>
class IncrementalObjectiveSolver {
 public:
  IncrementalObjectiveSolver(const IflsContext& ctx, bool group_clients,
                             IflsResult* result)
      : ctx_(ctx),
        group_clients_(group_clients),
        oracle_(*ctx.oracle),
        venue_(ctx.venue()),
        result_(result),
        stats_(result->stats),
        index_(ctx.oracle, ctx.existing) {}

  Policy* policy() { return &policy_; }

  void Run() {
    if (ctx_.candidates.empty()) {
      result_->found = false;
      result_->objective = 0.0;
      return;
    }
    index_.AddCandidates(ctx_.candidates);
    ordinal_.assign(venue_.num_partitions(), -1);
    for (std::size_t i = 0; i < ctx_.candidates.size(); ++i) {
      ordinal_[static_cast<std::size_t>(ctx_.candidates[i])] =
          static_cast<std::int32_t>(i);
    }
    policy_.Init(ctx_.candidates.size());

    InitClients();
    ProcessEvents(0.0);
    if (TryFinish()) return;

    BuildGroups();
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      Push(static_cast<std::uint32_t>(gi),
           oracle_.LeafOf(groups_[gi].partition), false, 0.0);
    }
    while (!queue_.empty()) {
      const Entry top = queue_.top();
      queue_.pop();
      ++stats_.queue_pops;
      gd_ = top.key;
      Group& g = groups_[top.group];
      if (g.alive > 0) {
        if (top.is_partition) {
          AddFacilityToGroup(g, top.entity);
        } else {
          ExpandNode(top.group, top.entity);
        }
      }
      ProcessEvents(gd_);
      if (TryFinish()) return;
    }
    gd_ = kInfDistance;
    ProcessEvents(kInfDistance);
    if (TryFinish()) return;
    // Unreachable for non-empty candidate sets in a connected venue: once
    // everything is retrieved every aggregate is exact.
    IFLS_LOG(FATAL) << "incremental solver failed to converge";
  }

 private:
  struct Entry {
    double key = 0.0;
    std::uint32_t group = 0;
    std::int32_t entity = -1;
    bool is_partition = false;
    bool operator>(const Entry& other) const { return key > other.key; }
  };

  struct Event {
    double dist = 0.0;
    std::uint32_t client = 0;
    PartitionId facility = kInvalidPartition;
    bool existing = false;
    // Candidate events sort before existing events at equal distance so a
    // prune sees every same-distance candidate retrieval already counted.
    bool operator>(const Event& other) const {
      if (dist != other.dist) return dist > other.dist;
      return existing && !other.existing;
    }
  };

  struct ClientState {
    bool alive = true;
    double best_existing = kInfDistance;
    std::uint32_t group = 0;
    RetrievedMap retrieved;  // candidates only
  };

  struct Group {
    PartitionId partition = kInvalidPartition;
    TrackedVector<std::uint32_t> clients;
    std::int32_t alive = 0;
    TrackedHashSet<std::int64_t> visited;
  };

  static std::int64_t Encode(std::int32_t entity, bool is_partition) {
    return is_partition ? (static_cast<std::int64_t>(1) << 32) + entity
                        : entity;
  }

  void InitClients() {
    clients_.resize(ctx_.clients.size());
    alive_count_ = static_cast<std::int64_t>(ctx_.clients.size());
    for (std::size_t i = 0; i < ctx_.clients.size(); ++i) {
      const Client& c = ctx_.clients[i];
      if (index_.IsFacility(c.partition)) {
        Record(static_cast<std::uint32_t>(i), c.partition, 0.0);
      }
    }
  }

  void BuildGroups() {
    std::unordered_map<PartitionId, std::uint32_t> group_of;
    for (std::size_t i = 0; i < ctx_.clients.size(); ++i) {
      if (!clients_[i].alive) continue;
      std::uint32_t gi;
      if (group_clients_) {
        auto [it, inserted] = group_of.try_emplace(
            ctx_.clients[i].partition,
            static_cast<std::uint32_t>(groups_.size()));
        if (inserted) {
          groups_.emplace_back();
          groups_.back().partition = ctx_.clients[i].partition;
        }
        gi = it->second;
      } else {
        groups_.emplace_back();
        groups_.back().partition = ctx_.clients[i].partition;
        gi = static_cast<std::uint32_t>(groups_.size() - 1);
      }
      groups_[gi].clients.push_back(static_cast<std::uint32_t>(i));
      ++groups_[gi].alive;
      clients_[i].group = gi;
    }
  }

  void Push(std::uint32_t group_index, std::int32_t entity, bool is_partition,
            double key) {
    Group& g = groups_[group_index];
    if (!g.visited.insert(Encode(entity, is_partition)).second) return;
    queue_.push({key, group_index, entity, is_partition});
    ++stats_.queue_pushes;
  }

  void ExpandNode(std::uint32_t group_index, NodeId node_id) {
    Group& g = groups_[group_index];
    const NodeId parent = oracle_.Parent(node_id);
    if (parent != kInvalidNode &&
        !g.visited.contains(Encode(parent, false))) {
      ++stats_.lower_bound_computations;
      Push(group_index, parent, false,
           oracle_.PartitionToNode(g.partition, parent));
    }
    if (oracle_.IsLeaf(node_id)) {
      for (PartitionId q : oracle_.NodePartitions(node_id)) {
        if (q == g.partition || !index_.IsFacility(q)) continue;
        if (g.visited.contains(Encode(q, true))) continue;
        ++stats_.lower_bound_computations;
        Push(group_index, q, true,
             oracle_.PartitionToPartition(g.partition, q));
      }
    } else {
      for (NodeId ch : oracle_.Children(node_id)) {
        if (index_.SubtreeCount(ch) == 0) continue;
        if (g.visited.contains(Encode(ch, false))) continue;
        ++stats_.lower_bound_computations;
        Push(group_index, ch, false, oracle_.PartitionToNode(g.partition, ch));
      }
    }
  }

  void AddFacilityToGroup(Group& g, PartitionId facility) {
    const Partition& home = venue_.partition(g.partition);
    if (g.partition != facility) {
      // Generalized Case-1 reuse (see EfficientSolver::AddFacilityToGroup).
      base_distances_.clear();
      base_distances_.reserve(home.doors.size());
      for (DoorId d : home.doors) {
        base_distances_.push_back(oracle_.DoorToPartition(d, facility));
      }
      ++stats_.distance_computations;
      for (std::uint32_t ci : g.clients) {
        if (!clients_[ci].alive) continue;
        const Client& c = ctx_.clients[ci];
        double dist = kInfDistance;
        for (std::size_t i = 0; i < home.doors.size(); ++i) {
          const double cand =
              PointToDoorDistance(c.position, venue_.door(home.doors[i])) +
              base_distances_[i];
          if (cand < dist) dist = cand;
        }
        Record(ci, facility, dist);
      }
      return;
    }
    for (std::uint32_t ci : g.clients) {
      if (!clients_[ci].alive) continue;
      const Client& c = ctx_.clients[ci];
      const double dist =
          oracle_.PointToPartition(c.position, c.partition, facility);
      ++stats_.distance_computations;
      Record(ci, facility, dist);
    }
  }

  void Record(std::uint32_t ci, PartitionId facility, double dist) {
    ClientState& state = clients_[ci];
    if (index_.IsExisting(facility)) {
      state.best_existing = std::min(state.best_existing, dist);
      events_.push({dist, ci, facility, true});
    } else {
      state.retrieved.emplace(facility, dist);
      events_.push({dist, ci, facility, false});
    }
    ++stats_.facilities_retrieved;
  }

  void ProcessEvents(double bound) {
    while (!events_.empty() && events_.top().dist <= bound) {
      const Event e = events_.top();
      events_.pop();
      ClientState& state = clients_[e.client];
      if (!state.alive) continue;
      d_low_ = std::max(d_low_, e.dist);
      if (e.existing) {
        state.alive = false;
        ++stats_.clients_pruned;
        --alive_count_;
        Group& g = groups_.empty() ? dummy_group_ : groups_[state.group];
        if (!groups_.empty() && g.alive > 0) --g.alive;
        policy_.OnPrune(state.best_existing, state.retrieved, d_low_,
                        ordinal_);
      } else {
        policy_.OnCandidateEvent(
            static_cast<std::size_t>(
                ordinal_[static_cast<std::size_t>(e.facility)]),
            e.dist);
      }
    }
  }

  bool TryFinish() {
    ++stats_.check_answer_calls;
    double objective = 0.0;
    const std::int32_t ord = policy_.TryDecide(alive_count_, gd_, &objective);
    if (ord < 0) return false;
    result_->found = true;
    result_->answer = ctx_.candidates[static_cast<std::size_t>(ord)];
    result_->objective = objective;
    return true;
  }

  const IflsContext& ctx_;
  const bool group_clients_;
  const DistanceOracle& oracle_;
  const Venue& venue_;
  IflsResult* result_;
  QueryStats& stats_;
  FacilityIndex index_;
  Policy policy_;

  TrackedVector<ClientState> clients_;
  TrackedVector<Group> groups_;
  Group dummy_group_;
  std::priority_queue<Entry, TrackedVector<Entry>, std::greater<Entry>>
      queue_;
  std::priority_queue<Event, TrackedVector<Event>, std::greater<Event>>
      events_;
  std::vector<std::int32_t> ordinal_;
  std::vector<double> base_distances_;  // AddFacilityToGroup scratch

  double gd_ = 0.0;
  double d_low_ = 0.0;
  std::int64_t alive_count_ = 0;
};

}  // namespace internal
}  // namespace ifls

#endif  // IFLS_CORE_EXTENSION_ENGINE_H_
