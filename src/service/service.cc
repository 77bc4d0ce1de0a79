#include "src/service/service.h"

#include <atomic>
#include <cstdio>
#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/service/cost_ledger.h"

namespace ifls {
namespace {

using Clock = std::chrono::steady_clock;

/// Subscription ids, process-wide: a service re-hydrated after eviction
/// must not hand out an id a connection still holds for its predecessor.
std::atomic<std::uint64_t> g_next_subscription_id{1};

Clock::time_point DeadlineFor(Clock::time_point admitted_at,
                              double request_seconds,
                              double default_seconds) {
  double seconds = request_seconds;
  if (seconds == 0.0) seconds = default_seconds;
  if (seconds <= 0.0) return Clock::time_point::max();
  return admitted_at + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// True when `position` lies inside partition `partition` of `venue`.
bool PlacedInside(const Venue& venue, PartitionId partition,
                  const Point& position) {
  return partition >= 0 &&
         static_cast<std::size_t>(partition) < venue.num_partitions() &&
         venue.partition(partition).rect.Contains(position);
}

/// Distinguishes concurrently-live services in the metrics registry.
std::string NextInstanceLabel() {
  static std::atomic<std::uint64_t> next_instance{0};
  return "instance=\"" +
         std::to_string(next_instance.fetch_add(1, std::memory_order_relaxed)) +
         "\"";
}

}  // namespace

std::string ServiceMetrics::ToString() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "submitted=%llu admitted=%llu shed=%llu completed=%llu failed=%llu "
      "deadline_expired=%llu mutations=%llu rejected=%llu compactions=%llu "
      "cache_entries=%llu cache_evict=%llu "
      "iterators=%llu subs=%zu sub_events=%llu sub_pushes=%llu "
      "sub_solves=%llu sub_skips=%llu "
      "epoch=%llu overlay=%zu queue_depth=%zu p50=%.1fus p99=%.1fus",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(deadline_expired),
      static_cast<unsigned long long>(mutations_applied),
      static_cast<unsigned long long>(mutations_rejected),
      static_cast<unsigned long long>(compactions),
      static_cast<unsigned long long>(oracle_cache_entries),
      static_cast<unsigned long long>(oracle_cache_evictions),
      static_cast<unsigned long long>(iterators_opened), subscriptions_active,
      static_cast<unsigned long long>(subscription_events),
      static_cast<unsigned long long>(subscription_pushes),
      static_cast<unsigned long long>(subscription_solves),
      static_cast<unsigned long long>(subscription_skips),
      static_cast<unsigned long long>(snapshot_epoch), overlay_size,
      queue_depth, latency_p50_seconds * 1e6, latency_p99_seconds * 1e6);
  return buf;
}

Result<std::unique_ptr<IflsService>> IflsService::Create(
    Venue venue, std::vector<PartitionId> existing,
    std::vector<PartitionId> candidates, const ServiceOptions& options) {
  return CreateFromParts(std::make_shared<const Venue>(std::move(venue)),
                         /*tree=*/nullptr, std::move(existing),
                         std::move(candidates), options);
}

Result<std::unique_ptr<IflsService>> IflsService::CreateFromParts(
    std::shared_ptr<const Venue> venue, std::shared_ptr<const VipTree> tree,
    std::vector<PartitionId> existing, std::vector<PartitionId> candidates,
    const ServiceOptions& options) {
  if (options.num_workers < 0) {
    return Status::InvalidArgument("num_workers must be >= 0");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (venue == nullptr) {
    return Status::InvalidArgument("venue must not be null");
  }
  if (tree != nullptr && &tree->venue() != venue.get()) {
    return Status::InvalidArgument(
        "pre-built tree does not reference the supplied venue");
  }
  const std::size_t num_partitions = venue->num_partitions();
  Result<std::shared_ptr<const IndexSnapshot>> boot = IndexSnapshot::Build(
      std::move(venue), std::move(existing), std::move(candidates),
      /*epoch=*/0, options.tree, std::move(tree));
  if (!boot.ok()) return boot.status();
  std::unique_ptr<IflsService> service(new IflsService(
      options, std::move(boot).value(), num_partitions));
  service->StartThreads();
  return service;
}

IflsService::IflsService(ServiceOptions options,
                         std::shared_ptr<const IndexSnapshot> boot,
                         std::size_t num_partitions)
    : options_(std::move(options)),
      overlay_(num_partitions, boot->existing(), boot->candidates()),
      snapshot_(std::move(boot)) {
  // Publish the boot state before any thread exists, so AcquireState() is
  // never null and needs no locking.
  state_.Store(std::make_shared<const ServingState>(snapshot_,
                                                    overlay_.delta()));
  RegisterMetrics();
}

IflsService::~IflsService() {
  // Drop the registry callbacks before anything else dies: once clear()
  // returns, no exposition pass can touch this service again.
  metric_registrations_.clear();
  Stop();
}

void IflsService::RegisterMetrics() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  iterator_pages_ = registry.GetCounter("ifls_iterator_pages_total");
  subscription_push_seconds_ =
      registry.GetHistogram("ifls_subscription_push_seconds");

  const std::string label = NextInstanceLabel();
  auto counter = [&](const char* name, const std::atomic<std::uint64_t>* v) {
    metric_registrations_.push_back(registry.RegisterCallbackCounter(
        name, label, [v] { return v->load(std::memory_order_relaxed); }));
  };
  counter("ifls_service_submitted_total", &submitted_);
  counter("ifls_service_admitted_total", &admitted_);
  counter("ifls_service_shed_total", &shed_);
  counter("ifls_service_completed_total", &completed_);
  counter("ifls_service_failed_total", &failed_);
  counter("ifls_service_deadline_expired_total", &deadline_expired_);
  counter("ifls_service_mutations_applied_total", &mutations_applied_);
  counter("ifls_service_mutations_rejected_total", &mutations_rejected_);
  counter("ifls_service_compactions_total", &compactions_);
  counter("ifls_service_iterators_opened_total", &iterators_opened_);
  counter("ifls_subscription_events_total", &subscription_events_);
  counter("ifls_subscription_pushes_total", &subscription_pushes_);
  counter("ifls_subscription_solves_total", &subscription_solves_);
  counter("ifls_subscription_skips_total", &subscription_skips_);

  metric_registrations_.push_back(registry.RegisterCallbackGauge(
      "ifls_subscription_active", label, [this] {
        std::lock_guard<std::mutex> lock(subs_mu_);
        return static_cast<double>(subscriptions_.size());
      }));

  metric_registrations_.push_back(registry.RegisterCallbackGauge(
      "ifls_service_queue_depth", label, [this] {
        std::lock_guard<std::mutex> lock(queue_mu_);
        return static_cast<double>(queue_.size());
      }));
  metric_registrations_.push_back(registry.RegisterCallbackGauge(
      "ifls_service_snapshot_epoch", label, [this] {
        return static_cast<double>(state_.Acquire()->snapshot->epoch());
      }));
  metric_registrations_.push_back(registry.RegisterCallbackGauge(
      "ifls_service_overlay_size", label, [this] {
        return static_cast<double>(state_.Acquire()->overlay_size);
      }));
  metric_registrations_.push_back(registry.RegisterCallbackGauge(
      "ifls_service_door_cache_entries", label, [this] {
        return static_cast<double>(
            state_.Acquire()->snapshot->tree().door_cache_stats().entries);
      }));
  metric_registrations_.push_back(registry.RegisterCallbackGauge(
      "ifls_service_door_cache_evictions", label, [this] {
        return static_cast<double>(
            state_.Acquire()->snapshot->tree().door_cache_stats().evictions);
      }));
  metric_registrations_.push_back(registry.RegisterCallbackHistogram(
      "ifls_service_latency_seconds", label, &latency_));
}

void IflsService::StartThreads() {
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] {
      while (RunOneTask(/*take_queries=*/true, /*block=*/true)) {
      }
    });
  }
}

std::shared_ptr<const ServingState> IflsService::AcquireState() const {
  return state_.Acquire();
}

std::uint64_t IflsService::snapshot_epoch() const {
  return state_.Acquire()->snapshot->epoch();
}

Status IflsService::CheckRunning() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return stopping_ ? Status::Unavailable("service is stopping")
                   : Status::OK();
}

// ---------------------------------------------------------------------------
// Query path
// ---------------------------------------------------------------------------

IflsService::PendingQuery IflsService::MakePending(
    ServiceRequest request, Clock::time_point admitted_at) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  PendingQuery item;
  item.request = std::move(request);
  item.admitted_at = admitted_at;
  // The admission stamp doubles as the queue-wait span start, so tracing
  // adds no clock read here; the id is one relaxed fetch_add.
  if (item.request.trace_id != 0) {
    // Propagated context (a networked query): adopt the caller's trace id
    // and carry its sampling verdict — the server never re-rolls the draw
    // for a query the client already decided to sample (or not).
    item.trace_id = item.request.trace_id;
    item.trace_propagated = true;
    item.trace_sampled = item.request.trace_sampled;
  } else if (TraceEnabled()) {
    item.trace_id = TraceRecorder::Global().NewTraceId();
  }
  item.deadline = DeadlineFor(item.admitted_at, item.request.deadline_seconds,
                              options_.default_deadline_seconds);
  return item;
}

Status IflsService::Admit(PendingQuery item) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("service is stopping");
    }
    if (queue_.size() >= options_.queue_capacity) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("admission queue full (" +
                                 std::to_string(options_.queue_capacity) +
                                 " queries)");
    }
    queue_.push_back(std::move(item));
    admitted_.fetch_add(1, std::memory_order_relaxed);
  }
  queue_cv_.notify_one();
  return Status::OK();
}

Status IflsService::SubmitQueryAsync(ServiceRequest request,
                                     std::function<void(ServiceReply)> done) {
  PendingQuery item = MakePending(std::move(request), Clock::now());
  item.done = std::move(done);
  return Admit(std::move(item));
}

Result<std::future<ServiceReply>> IflsService::SubmitQuery(
    ServiceRequest request) {
  // std::function needs a copyable callable, hence the shared promise.
  auto promise = std::make_shared<std::promise<ServiceReply>>();
  std::future<ServiceReply> future = promise->get_future();
  IFLS_RETURN_NOT_OK(SubmitQueryAsync(
      std::move(request),
      [promise](ServiceReply reply) { promise->set_value(std::move(reply)); }));
  return future;
}

ServiceReply IflsService::RunAdmitted(ServiceRequest request,
                                      Clock::time_point admitted_at) {
  PendingQuery item = MakePending(std::move(request), admitted_at);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      ServiceReply reply;
      reply.status = Status::Unavailable("service is stopping");
      return reply;
    }
    admitted_.fetch_add(1, std::memory_order_relaxed);
    ++executing_;
  }
  ServiceReply reply = Execute(&item);
  FinishOneTask();
  return reply;
}

ServiceReply IflsService::Query(ServiceRequest request) {
  Result<std::future<ServiceReply>> submitted =
      SubmitQuery(std::move(request));
  ServiceReply reply;
  if (!submitted.ok()) {
    reply.status = submitted.status();
    return reply;
  }
  std::future<ServiceReply> future = std::move(submitted).value();
  if (options_.num_workers == 0) {
    // Admission-only mode: pump the queue on the calling thread until this
    // request's reply materializes (it may not be the next item in line).
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!ProcessOneInline()) break;
    }
  }
  return future.get();
}

bool IflsService::RunOneTask(bool take_queries, bool block) {
  PendingQuery query;
  std::shared_ptr<Subscription> pump;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    const auto has_work = [&] {
      return (take_queries && !queue_.empty()) || !sub_pumps_.empty();
    };
    if (block) {
      queue_cv_.wait(lock, [&] { return stopping_ || has_work(); });
    }
    if (!has_work()) return false;
    if (take_queries && !queue_.empty()) {
      query = std::move(queue_.front());
      queue_.pop_front();
    } else {
      pump = std::move(sub_pumps_.front());
      sub_pumps_.pop_front();
      pump->scheduled_ = false;
    }
    ++executing_;
  }
  if (pump != nullptr) {
    pump->Pump();
  } else {
    query.done(Execute(&query));
  }
  FinishOneTask();
  return true;
}

void IflsService::FinishOneTask() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  --executing_;
  if (queue_.empty() && sub_pumps_.empty() && executing_ == 0) {
    drained_cv_.notify_all();
  }
}

ServiceReply IflsService::Execute(PendingQuery* item) {
  const Clock::time_point start = Clock::now();
  ServiceReply reply;
  reply.trace_id = item->trace_id;
  reply.queue_seconds = Seconds(start - item->admitted_at);

  // Spans below this point carry the query's trace id; a query that lost
  // the 1-in-N sampling draw records nothing at all. Propagated contexts
  // carry the caller's verdict instead of a fresh local draw: a client that
  // sampled its RPC must see the server half of the trace, and a client
  // that didn't must not pay for one (DESIGN.md §15).
  TraceRecorder& recorder = TraceRecorder::Global();
  const bool sampled =
      item->trace_propagated
          ? (TraceEnabled() && item->trace_sampled)
          : (TraceEnabled() && item->trace_id != 0 &&
             recorder.Sampled(item->trace_id));
  TraceIdScope trace_scope(item->trace_id, sampled);
  if (sampled) {
    recorder.Record(TraceCategory::kService, "queue_wait", item->trace_id,
                    TraceNanosFrom(item->admitted_at), TraceNanosFrom(start));
  }

  if (start > item->deadline) {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    reply.status = Status::DeadlineExceeded(
        "deadline passed after " + std::to_string(reply.queue_seconds) +
        "s in queue");
    latency_.Record(reply.queue_seconds);
    return reply;
  }

  // One atomic acquire pins a mutually consistent (snapshot, overlay) pair
  // for the whole solve; concurrent mutations and snapshot publications
  // build fresh states and never touch this one.
  std::shared_ptr<const ServingState> state;
  {
    TraceSpan span(TraceCategory::kService, "snapshot_pin");
    state = state_.Acquire();
  }
  reply.snapshot_epoch = state->snapshot->epoch();
  reply.overlay_size = state->overlay_size;

  IflsContext ctx;
  {
    TraceSpan span(TraceCategory::kService, "overlay_compose");
    ctx.oracle = &state->snapshot->tree();
    ctx.existing = state->effective_existing;
    ctx.candidates = state->effective_candidates;
    ctx.clients = std::move(item->request.clients);
  }

  Stopwatch solve_watch;
  Result<IflsResult> solved = Status::Internal("solver did not run");
  {
    TraceSpan span(TraceCategory::kService, "solve");
    solved = SolveWithObjective(item->request.objective, ctx, options_.solvers);
  }
  reply.solve_seconds = solve_watch.ElapsedSeconds();

  completed_.fetch_add(1, std::memory_order_relaxed);
  if (solved.ok()) {
    reply.result = std::move(solved).value();
    // The cost ledger (DESIGN.md §15) is the one place a completed query's
    // QueryStats are folded: the ifls_query_* rollups, the per-{venue,
    // objective, tier} aggregates and the slow-query ring. Span capture
    // follows the sampling verdict — an unsampled query has no spans.
    QueryCostSample sample;
    sample.venue = options_.venue_label;
    sample.objective = item->request.objective;
    sample.trace_id = item->trace_id;
    sample.parent_span_id = item->request.parent_span_id;
    sample.queue_seconds = reply.queue_seconds;
    sample.solve_seconds = reply.solve_seconds;
    sample.stats = reply.result.stats;
    QueryCostLedger::Global().RecordQuery(sample, sampled);
  } else {
    reply.status = solved.status();
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  latency_.Record(Seconds(Clock::now() - item->admitted_at));
  return reply;
}

// ---------------------------------------------------------------------------
// Mutation path
// ---------------------------------------------------------------------------

Status IflsService::Mutate(const Mutation& mutation,
                           std::uint64_t* applied_version) {
  std::vector<std::shared_ptr<Subscription>> to_pump;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    const Status applied = overlay_.Apply(mutation);
    if (!applied.ok()) {
      mutations_rejected_.fetch_add(1, std::memory_order_relaxed);
      return applied;
    }
    PublishStateLocked();
    mutations_applied_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t version = overlay_.mutations_applied();
    if (applied_version != nullptr) *applied_version = version;
    // Fan the accepted mutation out to every standing query while still
    // under writer_mu_: each subscription's event stream then carries the
    // mutations in exactly the order their versions were assigned.
    {
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> slock(subs_mu_);
      to_pump.reserve(subscriptions_.size());
      for (auto& [id, sub] : subscriptions_) {
        sub->EnqueueMutation(mutation, version, now);
        to_pump.push_back(sub);
      }
    }
    if (options_.compaction_threshold > 0 &&
        overlay_.net_size() >= options_.compaction_threshold) {
      // The mutation is applied and published either way; a failed fold
      // keeps serving the overlay on the old snapshot.
      if (Status s = CompactLocked(); !s.ok()) {
        IFLS_LOG(ERROR) << "compaction failed, keeping epoch "
                        << snapshot_->epoch() << ": " << s.ToString();
      }
    }
  }
  for (const auto& sub : to_pump) SchedulePump(sub);
  if (!to_pump.empty() && options_.num_workers == 0) {
    // Admission-only mode: deliver invalidations synchronously, so Mutate
    // returning means every affected subscription has been pushed/skipped.
    while (RunOneTask(/*take_queries=*/false, /*block=*/false)) {
    }
  }
  return Status::OK();
}

void IflsService::PublishStateLocked() {
  state_.Store(std::make_shared<const ServingState>(
      snapshot_, overlay_.delta(), overlay_.mutations_applied()));
}

// ---------------------------------------------------------------------------
// Streaming iterators & standing subscriptions
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ResultIterator>> IflsService::OpenIterator(
    ServiceRequest request) {
  IFLS_RETURN_NOT_OK(CheckRunning());
  TraceSpan span(TraceCategory::kService, "iterator_open");
  std::shared_ptr<const ServingState> state = state_.Acquire();
  const std::uint64_t version = state->version;
  IflsContext ctx;
  ctx.oracle = &state->snapshot->tree();
  ctx.existing = state->effective_existing;
  ctx.candidates = state->effective_candidates;
  ctx.clients = std::move(request.clients);
  IFLS_ASSIGN_OR_RETURN(
      std::unique_ptr<RankedStream> stream,
      OpenRankedStream(request.objective, ctx, options_.solvers));
  iterators_opened_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<ResultIterator>(new ResultIterator(
      std::move(state), std::move(stream), version, iterator_pages_));
}

Result<std::shared_ptr<Subscription>> IflsService::Subscribe(
    const std::vector<Client>& clients, const SubscriptionOptions& options,
    SubscriptionCallback callback) {
  IFLS_RETURN_NOT_OK(CheckRunning());
  if (options.tolerance < 0.0) {
    return Status::InvalidArgument("tolerance must be non-negative");
  }
  if (!callback) {
    return Status::InvalidArgument("subscription callback must be set");
  }
  // Validate up front: the monitor IFLS_CHECKs client placement.
  {
    const Venue& venue = state_.Acquire()->snapshot->venue();
    for (const Client& c : clients) {
      if (!PlacedInside(venue, c.partition, c.position)) {
        return Status::InvalidArgument(
            "subscription client outside its partition");
      }
    }
  }
  const Clock::time_point subscribed_at = Clock::now();
  Subscription::Sink sink;
  sink.events = &subscription_events_;
  sink.pushes = &subscription_pushes_;
  sink.solves = &subscription_solves_;
  sink.skips = &subscription_skips_;
  sink.push_seconds = subscription_push_seconds_;
  std::shared_ptr<Subscription> sub;
  std::unique_lock<std::mutex> monitor_lock;
  {
    // Capture the effective sets, seed the monitor and register — all
    // atomically with the mutation stream, so no accepted mutation is ever
    // missed by or double-counted in the monitor.
    std::lock_guard<std::mutex> lock(writer_mu_);
    const std::uint64_t id =
        g_next_subscription_id.fetch_add(1, std::memory_order_relaxed);
    sub = std::shared_ptr<Subscription>(
        new Subscription(id, options, std::move(callback), state_.Acquire(),
                         options_.solvers.minmax, sink));
    for (const Client& c : clients) {
      sub->monitor_.AddClient(c.position, c.partition);
    }
    sub->version_ = overlay_.mutations_applied();
    // Take the processing lock before the subscription becomes visible:
    // mutations may start queueing events the moment it is registered, but
    // nothing can fold ahead of the initial answer.
    monitor_lock = std::unique_lock<std::mutex>(sub->monitor_mu_);
    {
      std::lock_guard<std::mutex> slock(subs_mu_);
      subscriptions_.emplace(sub->id(), sub);
    }
  }
  sub->DeliverInitialLocked(subscribed_at);
  monitor_lock.unlock();
  return sub;
}

Status IflsService::Unsubscribe(std::uint64_t subscription_id) {
  std::shared_ptr<Subscription> sub;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subscriptions_.find(subscription_id);
    if (it == subscriptions_.end()) {
      return Status::NotFound("no subscription with id " +
                              std::to_string(subscription_id));
    }
    sub = std::move(it->second);
    subscriptions_.erase(it);
  }
  sub->Close();
  return Status::OK();
}

Status IflsService::TickSubscription(std::uint64_t subscription_id,
                                     ClientId client, const Point& position,
                                     PartitionId partition) {
  IFLS_RETURN_NOT_OK(CheckRunning());
  std::shared_ptr<Subscription> sub;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subscriptions_.find(subscription_id);
    if (it == subscriptions_.end()) {
      return Status::NotFound("no subscription with id " +
                              std::to_string(subscription_id));
    }
    sub = it->second;
  }
  if (!PlacedInside(sub->pinned_->snapshot->venue(), partition, position)) {
    return Status::InvalidArgument("tick position outside the partition");
  }
  sub->EnqueueTick(client, position, partition, Clock::now());
  SchedulePump(sub);
  if (options_.num_workers == 0) {
    while (RunOneTask(/*take_queries=*/false, /*block=*/false)) {
    }
  }
  return Status::OK();
}

void IflsService::SchedulePump(const std::shared_ptr<Subscription>& sub) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_ || sub->scheduled_) return;
    sub->scheduled_ = true;
    sub_pumps_.push_back(sub);
  }
  queue_cv_.notify_one();
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

Status IflsService::CompactNow() {
  IFLS_RETURN_NOT_OK(CheckRunning());
  std::lock_guard<std::mutex> lock(writer_mu_);
  return CompactLocked();
}

Status IflsService::CompactLocked() {
  TraceSpan span(TraceCategory::kCompaction, "compaction");
  // Under writer_mu_ the published state is exactly base ⊕ overlay, so its
  // effective sets become the new base. The VIP-tree depends only on the
  // venue and is shared, so the build only canonicalizes the two sets.
  const std::shared_ptr<const ServingState> current = state_.Acquire();
  IFLS_ASSIGN_OR_RETURN(
      std::shared_ptr<const IndexSnapshot> next,
      IndexSnapshot::Build(snapshot_->shared_venue(),
                           current->effective_existing,
                           current->effective_candidates,
                           snapshot_->epoch() + 1, options_.tree,
                           snapshot_->shared_tree()));
  snapshot_ = std::move(next);
  overlay_.Fold();
  PublishStateLocked();
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Lifecycle & metrics
// ---------------------------------------------------------------------------

void IflsService::Drain() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  drained_cv_.wait(lock, [this] {
    return queue_.empty() && sub_pumps_.empty() && executing_ == 0;
  });
}

void IflsService::Stop() {
  std::deque<PendingQuery> orphaned;
  std::deque<std::shared_ptr<Subscription>> orphaned_pumps;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
    orphaned.swap(queue_);
    orphaned_pumps.swap(sub_pumps_);
    for (const auto& sub : orphaned_pumps) sub->scheduled_ = false;
  }
  // Close intake on every subscription: late ticks/mutations can no longer
  // queue events, and whatever was pending is dropped.
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (auto& [id, sub] : subscriptions_) sub->Close();
  }
  queue_cv_.notify_all();
  for (PendingQuery& item : orphaned) {
    ServiceReply reply;
    reply.status = Status::Unavailable("service stopped before execution");
    shed_.fetch_add(1, std::memory_order_relaxed);
    item.done(std::move(reply));
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.empty() && sub_pumps_.empty() && executing_ == 0) {
      drained_cv_.notify_all();
    }
  }
}

ServiceMetrics IflsService::Metrics() const {
  ServiceMetrics m;
  m.submitted = submitted_.load(std::memory_order_relaxed);
  m.admitted = admitted_.load(std::memory_order_relaxed);
  m.shed = shed_.load(std::memory_order_relaxed);
  m.completed = completed_.load(std::memory_order_relaxed);
  m.failed = failed_.load(std::memory_order_relaxed);
  m.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  m.mutations_applied = mutations_applied_.load(std::memory_order_relaxed);
  m.mutations_rejected = mutations_rejected_.load(std::memory_order_relaxed);
  m.compactions = compactions_.load(std::memory_order_relaxed);
  m.iterators_opened = iterators_opened_.load(std::memory_order_relaxed);
  m.subscription_events =
      subscription_events_.load(std::memory_order_relaxed);
  m.subscription_pushes =
      subscription_pushes_.load(std::memory_order_relaxed);
  m.subscription_solves =
      subscription_solves_.load(std::memory_order_relaxed);
  m.subscription_skips = subscription_skips_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    m.subscriptions_active = subscriptions_.size();
  }
  const std::shared_ptr<const ServingState> state = state_.Acquire();
  m.snapshot_epoch = state->snapshot->epoch();
  m.overlay_size = state->overlay_size;
  const ConcurrentDoorCache::Stats cache =
      state->snapshot->tree().door_cache_stats();
  m.oracle_cache_entries = cache.entries;
  m.oracle_cache_evictions = cache.evictions;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    m.queue_depth = queue_.size();
  }
  m.latency_p50_seconds = latency_.PercentileSeconds(0.5);
  m.latency_p99_seconds = latency_.PercentileSeconds(0.99);
  m.latency_mean_seconds = latency_.MeanSeconds();
  return m;
}

}  // namespace ifls
