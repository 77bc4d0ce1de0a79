#ifndef IFLS_SERVICE_SUBSCRIPTION_H_
#define IFLS_SERVICE_SUBSCRIPTION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/core/continuous.h"
#include "src/service/delta_overlay.h"
#include "src/service/snapshot.h"

namespace ifls {

class IflsService;

/// Per-subscription configuration.
struct SubscriptionOptions {
  /// Relative staleness budget for the standing answer: an event only
  /// triggers a pushed re-solve when the continuous engine's certified
  /// lower bound can no longer prove the cached answer within `tolerance`
  /// of optimal. 0 keeps the subscription exact (pushes still elide when
  /// the cached answer provably remains optimal).
  double tolerance = 0.0;
};

/// One pushed re-solve of a standing query. Pushes are full solver answers:
/// bit-identical to a from-scratch SolveEfficient over the facility sets at
/// `version` with the subscription's clients after `ticks_applied` moves
/// (tests/subscription_fuzz_test locks this in).
struct SubscriptionPush {
  std::uint64_t subscription_id = 0;
  /// Push ordinal within the subscription; 0 is the initial answer
  /// delivered synchronously by Subscribe.
  std::uint64_t sequence = 0;
  /// Service mutation version (accepted-mutation count) folded into this
  /// answer.
  std::uint64_t version = 0;
  /// Client moves folded into this answer.
  std::uint64_t ticks_applied = 0;
  IflsResult result;
  /// Event admission -> push delivery.
  double latency_seconds = 0.0;
};

/// Invoked on the pumping thread (a service worker, or the caller itself in
/// admission-only mode) with the subscription's processing lock held:
/// reentering the service from the callback deadlocks. Must not throw.
using SubscriptionCallback = std::function<void(const SubscriptionPush&)>;

/// A standing IFLS query registered with IflsService::Subscribe. The
/// subscription pins the ServingState current at registration (its tree
/// backs all future re-solves; distances are identical across snapshots
/// because the venue never changes) and mirrors the service's accepted
/// mutation stream plus its own trajectory ticks into a ContinuousIfls
/// monitor. Every event runs the monitor's certified-bound check; only
/// events that actually invalidate the cached answer (beyond the configured
/// tolerance) re-solve and push.
///
/// Thread-safe. Owned jointly by the service and the caller; after
/// Unsubscribe (or service stop) the object stays readable via Current()
/// but receives no further events.
class Subscription {
 public:
  /// Point-in-time observation of the standing answer.
  struct State {
    bool has_answer = false;
    PartitionId answer = kInvalidPartition;
    /// Exact current objective of the standing answer (certified, so valid
    /// even when the last events were skips).
    double objective = 0.0;
    std::uint64_t version = 0;
    std::uint64_t ticks_applied = 0;
    std::uint64_t events_processed = 0;
    std::uint64_t pushes = 0;
    std::int64_t solves = 0;
    std::int64_t skips = 0;
  };

  std::uint64_t id() const { return id_; }
  double tolerance() const { return options_.tolerance; }

  State Current() const;

 private:
  friend class IflsService;

  using Clock = std::chrono::steady_clock;

  /// Counter/histogram sinks the owning service aggregates pushes into.
  struct Sink {
    std::atomic<std::uint64_t>* events = nullptr;
    std::atomic<std::uint64_t>* pushes = nullptr;
    std::atomic<std::uint64_t>* solves = nullptr;
    std::atomic<std::uint64_t>* skips = nullptr;
    LatencyHistogram* push_seconds = nullptr;
  };

  /// One queued invalidation source: an accepted service mutation or a
  /// trajectory tick. Processed FIFO under monitor_mu_.
  struct Event {
    enum class Kind : std::uint8_t { kMutation, kTick };
    Kind kind = Kind::kMutation;
    Mutation mutation;                 // kMutation
    std::uint64_t version = 0;         // kMutation: version after applying
    ClientId client = 0;               // kTick
    Point position;
    PartitionId partition = kInvalidPartition;
    Clock::time_point enqueued_at;
  };

  Subscription(std::uint64_t id, SubscriptionOptions options,
               SubscriptionCallback callback,
               std::shared_ptr<const ServingState> pinned,
               const EfficientOptions& solver, Sink sink);

  /// Runs the initial solve and delivers push #0. Caller holds monitor_mu_.
  void DeliverInitialLocked(Clock::time_point subscribed_at);

  /// FIFO admission; no-ops once closed.
  void EnqueueMutation(const Mutation& mutation, std::uint64_t version,
                       Clock::time_point now);
  void EnqueueTick(ClientId client, const Point& position,
                   PartitionId partition, Clock::time_point now);

  /// Drains and processes every pending event (events enqueued while the
  /// pump runs are picked up too). Safe to call concurrently; monitor_mu_
  /// serializes.
  void Pump();

  /// Stops event intake and drops anything pending.
  void Close();

  void ProcessEventLocked(const Event& event);
  void PushLocked(const IflsResult& result, Clock::time_point enqueued_at);

  const std::uint64_t id_;
  const SubscriptionOptions options_;
  const SubscriptionCallback callback_;
  /// Pins the oracle (tree + venue) the monitor solves against.
  const std::shared_ptr<const ServingState> pinned_;
  const Sink sink_;

  /// Guards pending_ and closed_ only: Mutate's event fan-out must never
  /// block behind a running solve.
  mutable std::mutex events_mu_;
  std::deque<Event> pending_;
  bool closed_ = false;

  /// Serializes monitor access and everything below it.
  mutable std::mutex monitor_mu_;
  ContinuousIfls monitor_;
  std::uint64_t version_ = 0;        // mutations folded so far
  std::uint64_t ticks_applied_ = 0;  // moves folded so far
  std::uint64_t sequence_ = 0;       // next push ordinal
  std::uint64_t events_processed_ = 0;
  std::uint64_t pushes_ = 0;

  /// Scheduling dedup flag; guarded by the owning service's queue mutex.
  bool scheduled_ = false;
};

}  // namespace ifls

#endif  // IFLS_SERVICE_SUBSCRIPTION_H_
