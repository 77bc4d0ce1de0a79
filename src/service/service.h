#ifndef IFLS_SERVICE_SERVICE_H_
#define IFLS_SERVICE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/metrics_registry.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/common/versioned.h"
#include "src/core/solve_dispatch.h"
#include "src/service/delta_overlay.h"
#include "src/service/result_iterator.h"
#include "src/service/snapshot.h"
#include "src/service/subscription.h"

namespace ifls {

/// Serving defaults for the index build: unlike offline paper-comparison
/// runs (where memoizing door distances would blur the baseline-vs-efficient
/// comparison, see VipTreeOptions), a long-lived service wants the
/// door-distance cache on — repeated client traffic against one snapshot is
/// exactly the workload it pays off for.
inline VipTreeOptions DefaultServiceTreeOptions() {
  VipTreeOptions tree;
  tree.enable_door_distance_cache = true;
  return tree;
}

/// Configuration of the online serving front.
struct ServiceOptions {
  /// Query worker threads. 0 = admission-only mode: requests queue but
  /// nothing drains until the caller pumps ProcessOneInline() (embedders,
  /// deterministic tests).
  int num_workers = 2;
  /// Admission queue bound; a submit finding the queue full is shed with
  /// Status::kUnavailable instead of growing latency without bound.
  std::size_t queue_capacity = 256;
  /// Net overlay size (partitions whose role drifted from the snapshot
  /// base) at which the mutation that reaches it also compacts, inline.
  /// 0 disables automatic compaction; CompactNow() always works.
  std::size_t compaction_threshold = 64;
  /// Default per-query deadline, measured from admission; <= 0 = none.
  /// A request whose deadline passes while still queued is answered with
  /// Status::kDeadlineExceeded without running the solver.
  double default_deadline_seconds = 0.0;
  VipTreeOptions tree = DefaultServiceTreeOptions();
  SolverOptionSet solvers;
  /// Venue label stamped on this service's per-query cost-ledger samples
  /// (the `venue` dimension of the ifls_ledger_* series). Empty is fine for
  /// single-venue deployments; the fleet front fills it from the store.
  std::string venue_label;
};

/// One query submitted to the service: an objective plus its client set.
/// Facility sets come from the service's serving state, not the request.
struct ServiceRequest {
  IflsObjective objective = IflsObjective::kMinMax;
  std::vector<Client> clients;
  /// Per-request deadline override; 0 uses the service default, < 0 forces
  /// no deadline.
  double deadline_seconds = 0.0;
  /// Propagated trace context (DESIGN.md §15). When `trace_id` is non-zero
  /// the query adopts it — spans recorded during the solve land under the
  /// caller's trace id and the caller's sampling verdict (`trace_sampled`)
  /// is honored verbatim instead of re-rolling the server-side 1-in-N draw,
  /// so a sampled client RPC is never dropped by the server. A zero
  /// `trace_id` keeps the local behavior: mint an id, roll the draw.
  std::uint64_t trace_id = 0;
  bool trace_sampled = false;
  /// The caller-side span the adopted spans nest under (the RPC's request
  /// id on networked queries); recorded on ledger samples for correlation.
  std::uint64_t parent_span_id = 0;
};

/// Outcome of one request. `status` is kOk with `result` filled, or the
/// validation/solver error, or kDeadlineExceeded/kUnavailable from the
/// serving layer itself.
struct ServiceReply {
  Status status;
  IflsResult result;
  /// Epoch of the snapshot the query ran against.
  std::uint64_t snapshot_epoch = 0;
  /// Net overlay size composed on top of that snapshot.
  std::size_t overlay_size = 0;
  /// Trace id assigned at submission (0 when tracing was disabled); spans
  /// recorded during the solve carry it, so a reply can be correlated with
  /// its slice of an exported trace.
  std::uint64_t trace_id = 0;
  double queue_seconds = 0.0;
  double solve_seconds = 0.0;
};

/// Counter block sampled by Metrics(); all fields are totals since start
/// except the gauges (queue_depth, snapshot_epoch, overlay_size).
struct ServiceMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;               // kUnavailable at admission
  std::uint64_t completed = 0;          // solver ran (ok or solver error)
  std::uint64_t failed = 0;             // completed with non-ok status
  std::uint64_t deadline_expired = 0;   // expired while queued
  std::uint64_t mutations_applied = 0;
  std::uint64_t mutations_rejected = 0;
  std::uint64_t compactions = 0;
  /// Streaming/standing-query traffic.
  std::uint64_t iterators_opened = 0;
  std::uint64_t subscription_events = 0;  // events folded into monitors
  std::uint64_t subscription_pushes = 0;  // re-solves delivered
  std::uint64_t subscription_solves = 0;  // full solves run (incl. initial)
  std::uint64_t subscription_skips = 0;   // events certified non-invalidating
  std::uint64_t snapshot_epoch = 0;     // gauge
  std::size_t overlay_size = 0;         // gauge
  std::size_t queue_depth = 0;          // gauge
  std::size_t subscriptions_active = 0; // gauge
  /// Door-distance cache occupancy/evictions of the serving
  /// snapshot's tree (gauges).
  std::uint64_t oracle_cache_entries = 0;
  std::uint64_t oracle_cache_evictions = 0;
  double latency_p50_seconds = 0.0;     // admission -> reply
  double latency_p99_seconds = 0.0;
  double latency_mean_seconds = 0.0;

  std::string ToString() const;
};

/// The online IFLS serving front (DESIGN.md §8): owns a chain of immutable
/// IndexSnapshots published RCU-style, a DeltaOverlay absorbing facility
/// mutations between snapshots, inline compaction folding the overlay into
/// a fresh snapshot, and a bounded worker pool answering
/// MinMax/MinDist/MaxSum queries against a pinned (snapshot ⊕ overlay) view.
///
/// Consistency contract: every query runs against exactly one ServingState —
/// one atomic acquire yields a snapshot and the effective facility sets
/// composed against that same snapshot, and answers are bit-identical to a
/// from-scratch rebuild over those sets (tests/service_differential_test
/// locks this in). Readers never block on mutations or compaction: both
/// publish a fresh immutable state and never touch a published one.
class IflsService {
 public:
  /// Builds the boot snapshot (epoch 0) and starts the worker threads. The venue is moved in and owned by the service's snapshots.
  static Result<std::unique_ptr<IflsService>> Create(
      Venue venue, std::vector<PartitionId> existing,
      std::vector<PartitionId> candidates, const ServiceOptions& options = {});

  /// Boots from pre-hydrated parts: a shared venue and — when `tree` is
  /// non-null — a pre-built VIP-tree (typically an mmap-loaded v3 snapshot,
  /// see fleet_store/VenueRouter), skipping the index build entirely. With
  /// a null tree this behaves like Create over the shared venue.
  static Result<std::unique_ptr<IflsService>> CreateFromParts(
      std::shared_ptr<const Venue> venue, std::shared_ptr<const VipTree> tree,
      std::vector<PartitionId> existing, std::vector<PartitionId> candidates,
      const ServiceOptions& options = {});

  ~IflsService();

  IflsService(const IflsService&) = delete;
  IflsService& operator=(const IflsService&) = delete;

  /// Admits `request` into the bounded queue. On admission `done` fires
  /// exactly once — on the worker thread that executed the query (or the
  /// pumping thread in admission-only mode), or on the Stop() caller for
  /// requests orphaned in the queue. Returns kUnavailable *without invoking
  /// the callback* when the queue is full (backpressure) or the service is
  /// stopping, so the caller can map shedding to its own error path
  /// synchronously. `done` must not re-enter the service.
  Status SubmitQueryAsync(ServiceRequest request,
                          std::function<void(ServiceReply)> done);

  /// SubmitQueryAsync with a callback that fulfils the returned future.
  Result<std::future<ServiceReply>> SubmitQuery(ServiceRequest request);

  /// Runs `request` on the calling thread, for a front that owns its own
  /// bounded admission queue (the network server's dispatch queue): the
  /// query was admitted at `admitted_at`, which starts its queue wait and
  /// its deadline. Everything else matches a queued query — queue_wait and
  /// solve spans, ServiceMetrics, the cost ledger — and Drain() waits for
  /// it. Answers kUnavailable once the service is stopping.
  ServiceReply RunAdmitted(ServiceRequest request,
                           std::chrono::steady_clock::time_point admitted_at);

  /// Submit + wait convenience. Shed/stopped submissions surface in the
  /// reply's status.
  ServiceReply Query(ServiceRequest request);

  /// Applies one facility mutation. On success the change is visible to
  /// every query admitted afterwards (a fresh ServingState is published
  /// before Mutate returns), every standing subscription gets the mutation
  /// queued as an invalidation event, and `applied_version` (when non-null)
  /// receives the service's new mutation version — the value iterator pins
  /// and subscription pushes report. A mutation that brings the overlay to
  /// `compaction_threshold` also compacts before returning.
  Status Mutate(const Mutation& mutation,
                std::uint64_t* applied_version = nullptr);

  /// Opens a streaming iterator over the ranked answer, pinned to the
  /// serving state current at this call: pages stay mutually consistent no
  /// matter what mutations or compactions land later. Only MinMax defines a
  /// full ranking today; other objectives return InvalidArgument.
  Result<std::unique_ptr<ResultIterator>> OpenIterator(ServiceRequest request);

  /// Registers a standing MinMax query over `clients` (ids within the
  /// subscription are 0..clients.size()-1 in registration order).
  /// Subscription ids are unique across every service of the process, so a
  /// fleet connection can key its subscriptions by id alone. The
  /// initial answer (push sequence 0) is delivered synchronously before
  /// Subscribe returns; afterwards the subscription receives a push only
  /// when a mutation or trajectory tick actually invalidates its cached
  /// answer beyond `options.tolerance` — certified-fresh events are skipped
  /// without solving. Pushes run on worker threads (or inline from Mutate /
  /// TickSubscription in admission-only mode).
  Result<std::shared_ptr<Subscription>> Subscribe(
      const std::vector<Client>& clients, const SubscriptionOptions& options,
      SubscriptionCallback callback);

  /// Deregisters and closes a subscription; its pending events are dropped.
  /// An in-flight push may still complete concurrently.
  Status Unsubscribe(std::uint64_t subscription_id);

  /// Moves one client of a standing query. The move is queued as an
  /// invalidation event and processed asynchronously (inline in
  /// admission-only mode); a push follows only if the move invalidates the
  /// cached answer.
  Status TickSubscription(std::uint64_t subscription_id, ClientId client,
                          const Point& position, PartitionId partition);

  /// Compacts on the calling thread: builds and publishes a snapshot whose
  /// base sets are the effective sets, and empties the overlay. Returns
  /// kUnavailable after Stop().
  Status CompactNow();

  /// Blocks until the admission queue is empty and no query is executing.
  void Drain();

  /// Stops admission, drains nothing: queued-but-unprocessed requests are
  /// answered kUnavailable, then the workers join. Idempotent;
  /// the destructor calls it.
  void Stop();

  /// Pops and executes one queued request — or, when the query queue is
  /// empty, one pending subscription pump — on the calling thread
  /// (admission-only mode or manual pumping). Returns false when there is
  /// nothing to do.
  bool ProcessOneInline() {
    return RunOneTask(/*take_queries=*/true, /*block=*/false);
  }

  /// The state queries currently run against; pins its snapshot until the
  /// caller drops the pointer. Never null.
  std::shared_ptr<const ServingState> AcquireState() const;

  std::uint64_t snapshot_epoch() const;
  ServiceMetrics Metrics() const;
  const ServiceOptions& options() const { return options_; }

 private:
  struct PendingQuery {
    ServiceRequest request;
    /// Completion callback of a queued query; unset under RunAdmitted,
    /// which returns the reply itself.
    std::function<void(ServiceReply)> done;
    std::chrono::steady_clock::time_point admitted_at;
    /// time_point::max() when the request has no deadline.
    std::chrono::steady_clock::time_point deadline;
    /// 0 when tracing was disabled at submission.
    std::uint64_t trace_id = 0;
    /// True when the request carried a propagated trace context; the
    /// propagated sampling verdict then overrides the local draw.
    bool trace_propagated = false;
    bool trace_sampled = false;
  };

  /// Stamps admission time, trace id and deadline; shared by every query
  /// front.
  PendingQuery MakePending(ServiceRequest request,
                           std::chrono::steady_clock::time_point admitted_at);
  /// Bounded admission under queue_mu_: kUnavailable when full or stopping.
  Status Admit(PendingQuery item);

  IflsService(ServiceOptions options,
              std::shared_ptr<const IndexSnapshot> boot,
              std::size_t num_partitions);

  void StartThreads();
  /// The one pop-and-run routine of workers and inline pumps: takes a
  /// query (only when `take_queries`; queries go before pumps) or else a
  /// subscription pump, runs it on the calling thread and returns true.
  /// Without `block` it returns false when nothing is pending; with it, it
  /// waits for work and returns false once stopping with nothing left.
  bool RunOneTask(bool take_queries, bool block);
  /// kUnavailable once Stop() has begun.
  Status CheckRunning() const;
  /// Builds a snapshot over the effective sets, folds the overlay into it
  /// and publishes the result. Caller holds writer_mu_.
  Status CompactLocked();
  /// Solves `item` against the current state; the caller delivers the
  /// reply.
  ServiceReply Execute(PendingQuery* item);
  void PublishStateLocked();
  /// Queues `sub` for pumping unless it is already queued or the service is
  /// stopping, and wakes a worker.
  void SchedulePump(const std::shared_ptr<Subscription>& sub);
  /// Drops the executing_ count taken when a query or pump was popped and
  /// wakes Drain() when everything ran dry.
  void FinishOneTask();
  /// Exposes the service's counters/gauges/latency histogram through
  /// MetricsRegistry::Global(), labeled instance="<n>" so concurrent
  /// services don't collide.
  void RegisterMetrics();

  const ServiceOptions options_;

  /// What queries read: swapped atomically, never mutated after publish.
  VersionedPtr<ServingState> state_;

  /// Writer side: serializes mutations, compaction folds and publications.
  /// Lock order: writer_mu_ -> subs_mu_ -> queue_mu_. A subscription's
  /// monitor_mu_ may be acquired under writer_mu_ (Subscribe) but no service
  /// lock is ever taken while holding a monitor_mu_ alone.
  mutable std::mutex writer_mu_;
  DeltaOverlay overlay_;
  std::shared_ptr<const IndexSnapshot> snapshot_;  // newest published

  /// Standing queries. Registration happens under writer_mu_ -> subs_mu_ so
  /// each subscription's event stream is atomic with the mutation version it
  /// was captured at.
  mutable std::mutex subs_mu_;
  std::map<std::uint64_t, std::shared_ptr<Subscription>> subscriptions_;

  // Admission queue.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;    // workers: work available / stop
  std::condition_variable drained_cv_;  // Drain(): queue empty, none running
  std::deque<PendingQuery> queue_;
  /// Subscriptions with queued events awaiting a pump; guarded by queue_mu_
  /// (as is each entry's scheduled_ flag). Workers prefer queries.
  std::deque<std::shared_ptr<Subscription>> sub_pumps_;
  std::size_t executing_ = 0;
  bool stopping_ = false;

  std::vector<std::thread> workers_;

  // Metrics (relaxed atomics; gauges sampled on read).
  mutable LatencyHistogram latency_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> mutations_applied_{0};
  std::atomic<std::uint64_t> mutations_rejected_{0};
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> iterators_opened_{0};
  std::atomic<std::uint64_t> subscription_events_{0};
  std::atomic<std::uint64_t> subscription_pushes_{0};
  std::atomic<std::uint64_t> subscription_solves_{0};
  std::atomic<std::uint64_t> subscription_skips_{0};

  /// Registry-owned streaming/standing-query series (process-wide).
  Counter* iterator_pages_ = nullptr;
  LatencyHistogram* subscription_push_seconds_ = nullptr;
  /// Callback registrations for this instance's series; cleared first thing
  /// in the destructor, so no scrape can observe a dying service.
  std::vector<MetricsRegistry::Registration> metric_registrations_;
};

}  // namespace ifls

#endif  // IFLS_SERVICE_SERVICE_H_
