#include "src/service/service.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/service/cost_ledger.h"

namespace ifls {
namespace {

using Clock = std::chrono::steady_clock;

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
      "cache_hit=%llu cache_miss=%llu cache_entries=%llu cache_evict=%llu "
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
      static_cast<unsigned long long>(oracle_cache_hits),
      static_cast<unsigned long long>(oracle_cache_misses),
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

  query_distance_computations_ =
      registry.GetCounter("ifls_query_distance_computations_total");
  query_lower_bound_computations_ =
      registry.GetCounter("ifls_query_lower_bound_computations_total");
  query_nn_searches_ = registry.GetCounter("ifls_query_nn_searches_total");
  query_clients_pruned_ =
      registry.GetCounter("ifls_query_clients_pruned_total");
  query_cache_hits_ = registry.GetCounter("ifls_query_cache_hits_total");
  query_cache_misses_ = registry.GetCounter("ifls_query_cache_misses_total");
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
  counter("ifls_service_oracle_cache_hits_total", &oracle_cache_hits_);
  counter("ifls_service_oracle_cache_misses_total", &oracle_cache_misses_);
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
        return static_cast<double>(state_.Acquire()->overlay.delta().size());
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
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  compactor_ = std::thread([this] { CompactorLoop(); });
}

std::shared_ptr<const ServingState> IflsService::AcquireState() const {
  return state_.Acquire();
}

std::uint64_t IflsService::snapshot_epoch() const {
  return state_.Acquire()->snapshot->epoch();
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

void IflsService::Deliver(PendingQuery* item, ServiceReply reply) {
  if (item->done) {
    item->done(std::move(reply));
  } else {
    item->promise.set_value(std::move(reply));
  }
}

Result<std::future<ServiceReply>> IflsService::SubmitQuery(
    ServiceRequest request) {
  PendingQuery item = MakePending(std::move(request), Clock::now());
  std::future<ServiceReply> future = item.promise.get_future();
  IFLS_RETURN_NOT_OK(Admit(std::move(item)));
  return future;
}

Status IflsService::SubmitQueryAsync(ServiceRequest request,
                                     std::function<void(ServiceReply)> done) {
  PendingQuery item = MakePending(std::move(request), Clock::now());
  item.done = std::move(done);
  return Admit(std::move(item));
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

bool IflsService::ProcessOneInline() {
  PendingQuery item;
  std::shared_ptr<Subscription> pump;
  bool have_query = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!queue_.empty()) {
      item = std::move(queue_.front());
      queue_.pop_front();
      have_query = true;
    } else if (!sub_pumps_.empty()) {
      pump = std::move(sub_pumps_.front());
      sub_pumps_.pop_front();
      pump->scheduled_ = false;
    } else {
      return false;
    }
    ++executing_;
  }
  if (have_query) {
    Deliver(&item, Execute(&item));
  } else {
    pump->Pump();
  }
  FinishOneTask();
  return true;
}

bool IflsService::ProcessOnePumpInline() {
  std::shared_ptr<Subscription> pump;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (sub_pumps_.empty()) return false;
    pump = std::move(sub_pumps_.front());
    sub_pumps_.pop_front();
    pump->scheduled_ = false;
    ++executing_;
  }
  pump->Pump();
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

void IflsService::WorkerLoop() {
  for (;;) {
    PendingQuery item;
    std::shared_ptr<Subscription> pump;
    bool have_query = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_ || !queue_.empty() || !sub_pumps_.empty();
      });
      // stopping_, both queues already drained
      if (queue_.empty() && sub_pumps_.empty()) return;
      if (!queue_.empty()) {
        item = std::move(queue_.front());
        queue_.pop_front();
        have_query = true;
      } else {
        pump = std::move(sub_pumps_.front());
        sub_pumps_.pop_front();
        pump->scheduled_ = false;
      }
      ++executing_;
    }
    if (have_query) {
      Deliver(&item, Execute(&item));
    } else {
      pump->Pump();
    }
    FinishOneTask();
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
  reply.overlay_size = state->overlay.delta().size();

  IflsContext ctx;
  {
    TraceSpan span(TraceCategory::kService, "overlay_compose");
    ctx.oracle = &state->oracle();
    ctx.existing = state->overlay.effective_existing();
    ctx.candidates = state->overlay.effective_candidates();
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
    // Fold the query's per-thread-attributed memo traffic into the service
    // totals; the sink mechanism guarantees these are exactly this query's.
    const QueryStats& stats = reply.result.stats;
    oracle_cache_hits_.fetch_add(stats.cache_hits, std::memory_order_relaxed);
    oracle_cache_misses_.fetch_add(stats.cache_misses,
                                   std::memory_order_relaxed);
    query_distance_computations_->Add(
        static_cast<std::uint64_t>(stats.distance_computations));
    query_lower_bound_computations_->Add(
        static_cast<std::uint64_t>(stats.lower_bound_computations));
    query_nn_searches_->Add(static_cast<std::uint64_t>(stats.nn_searches));
    query_clients_pruned_->Add(
        static_cast<std::uint64_t>(stats.clients_pruned));
    query_cache_hits_->Add(stats.cache_hits);
    query_cache_misses_->Add(stats.cache_misses);
    // Cost ledger (DESIGN.md §15): fold this query into the per-{venue,
    // objective, tier} decayed aggregates and offer it to the slow-query
    // ring. Span capture follows the sampling verdict — an unsampled query
    // has no spans to retain.
    QueryCostSample sample;
    sample.venue = options_.venue_label;
    sample.objective = item->request.objective;
    sample.trace_id = item->trace_id;
    sample.parent_span_id = item->request.parent_span_id;
    sample.queue_seconds = reply.queue_seconds;
    sample.solve_seconds = reply.solve_seconds;
    sample.stats = stats;
    QueryCostLedger::Global().RecordQuery(sample, sampled);
  } else {
    reply.status = solved.status();
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  const double elapsed = Seconds(Clock::now() - item->admitted_at);
  latency_.Record(elapsed);
  if (options_.slow_query_threshold_seconds > 0.0 &&
      elapsed >= options_.slow_query_threshold_seconds) {
    LogSlowQuery(reply, item->request.objective, elapsed);
  }
  return reply;
}

void IflsService::LogSlowQuery(const ServiceReply& reply,
                               IflsObjective objective,
                               double elapsed_seconds) const {
  char header[256];
  std::snprintf(
      header, sizeof(header),
      "slow query trace_id=%llu objective=%s elapsed=%.3fms "
      "(threshold=%.3fms) queue=%.3fms solve=%.3fms epoch=%llu overlay=%zu",
      static_cast<unsigned long long>(reply.trace_id),
      IflsObjectiveName(objective), elapsed_seconds * 1e3,
      options_.slow_query_threshold_seconds * 1e3, reply.queue_seconds * 1e3,
      reply.solve_seconds * 1e3,
      static_cast<unsigned long long>(reply.snapshot_epoch),
      reply.overlay_size);
  std::string message(header);
  if (reply.trace_id != 0) {
    // Spans of this query only; rings are per-thread so the whole query's
    // tree lives in the executing thread's buffer (plus none elsewhere).
    message += FormatSpanTree(
        TraceRecorder::Global().SnapshotTrace(reply.trace_id));
  }
  IFLS_LOG(WARNING) << message;
}

// ---------------------------------------------------------------------------
// Mutation path
// ---------------------------------------------------------------------------

Status IflsService::Mutate(const Mutation& mutation,
                           std::uint64_t* applied_version) {
  bool trigger_compaction = false;
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
    trigger_compaction = options_.compaction_threshold > 0 &&
                         overlay_.net_size() >= options_.compaction_threshold;
  }
  for (const auto& sub : to_pump) SchedulePump(sub);
  if (!to_pump.empty() && options_.num_workers == 0) {
    // Admission-only mode: deliver invalidations synchronously, so Mutate
    // returning means every affected subscription has been pushed/skipped.
    while (ProcessOnePumpInline()) {
    }
  }
  if (trigger_compaction) {
    std::lock_guard<std::mutex> lock(compact_mu_);
    // Coalesce: only request when the compactor has no pending work.
    if (compactions_requested_ == compactions_done_ && !compactor_stop_) {
      ++compactions_requested_;
      compact_cv_.notify_one();
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
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) return Status::Unavailable("service is stopping");
  }
  TraceSpan span(TraceCategory::kService, "iterator_open");
  std::shared_ptr<const ServingState> state = state_.Acquire();
  const std::uint64_t version = state->version;
  IflsContext ctx;
  ctx.oracle = &state->oracle();
  ctx.existing = state->overlay.effective_existing();
  ctx.candidates = state->overlay.effective_candidates();
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
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) return Status::Unavailable("service is stopping");
  }
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
      if (c.partition < 0 ||
          static_cast<std::size_t>(c.partition) >= venue.num_partitions() ||
          !venue.partition(c.partition).rect.Contains(c.position)) {
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
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> slock(subs_mu_);
      id = next_subscription_id_++;
    }
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
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) return Status::Unavailable("service is stopping");
  }
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
  const Venue& venue = sub->pinned_->snapshot->venue();
  if (partition < 0 ||
      static_cast<std::size_t>(partition) >= venue.num_partitions() ||
      !venue.partition(partition).rect.Contains(position)) {
    return Status::InvalidArgument("tick position outside the partition");
  }
  sub->EnqueueTick(client, position, partition, Clock::now());
  SchedulePump(sub);
  if (options_.num_workers == 0) {
    while (ProcessOnePumpInline()) {
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
  std::uint64_t target = 0;
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    if (compactor_stop_) return Status::Unavailable("service is stopping");
    target = ++compactions_requested_;
    compact_cv_.notify_one();
  }
  std::unique_lock<std::mutex> lock(compact_mu_);
  compacted_cv_.wait(lock, [this, target] {
    return compactions_done_ >= target || compactor_stop_;
  });
  if (compactions_done_ < target) {
    return Status::Unavailable("service stopped before compaction finished");
  }
  return Status::OK();
}

void IflsService::CompactorLoop() {
  for (;;) {
    std::uint64_t target = 0;
    {
      std::unique_lock<std::mutex> lock(compact_mu_);
      compact_cv_.wait(lock, [this] {
        return compactor_stop_ || compactions_requested_ > compactions_done_;
      });
      if (compactor_stop_) {
        compacted_cv_.notify_all();
        return;
      }
      target = compactions_requested_;
    }
    CompactOnce();
    {
      std::lock_guard<std::mutex> lock(compact_mu_);
      compactions_done_ = std::max(compactions_done_, target);
      compacted_cv_.notify_all();
    }
  }
}

void IflsService::CompactOnce() {
  TraceSpan compaction_span(TraceCategory::kCompaction, "compaction");

  // Cut: capture the base snapshot and the net delta under the writer lock.
  // Everything folded into the new snapshot is exactly this cut; mutations
  // racing the build stay in the overlay via the rebase below.
  std::shared_ptr<const IndexSnapshot> base;
  FacilityDelta cut;
  std::uint64_t epoch = 0;
  {
    TraceSpan span(TraceCategory::kCompaction, "overlay_cut");
    std::lock_guard<std::mutex> lock(writer_mu_);
    base = snapshot_;
    cut = overlay_.delta();
    epoch = next_epoch_;
  }

  const std::vector<PartitionId> new_existing = ComposeFacilitySet(
      base->existing(), cut.added_existing, cut.removed_existing);
  const std::vector<PartitionId> new_candidates = ComposeFacilitySet(
      base->candidates(), cut.added_candidates, cut.removed_candidates);

  // The slow part — FacilityIndex (and optionally the VIP-tree) rebuild —
  // runs without any lock: queries and mutations proceed against the old
  // state throughout.
  Result<std::shared_ptr<const IndexSnapshot>> built =
      Status::Internal("snapshot build did not run");
  {
    TraceSpan span(TraceCategory::kCompaction, "snapshot_build");
    built = IndexSnapshot::Build(
        base->shared_venue(), new_existing, new_candidates, epoch,
        options_.tree,
        options_.rebuild_tree_on_compact ? nullptr : base->shared_tree());
  }
  if (!built.ok()) {
    // Composed sets come from validated mutations, so this is a logic error;
    // keep serving the old snapshot rather than dying mid-flight.
    IFLS_LOG(ERROR) << "compaction failed, keeping epoch "
                    << base->epoch() << ": " << built.status().ToString();
    return;
  }

  {
    TraceSpan span(TraceCategory::kCompaction, "publish_rebase");
    std::lock_guard<std::mutex> lock(writer_mu_);
    snapshot_ = std::move(built).value();
    next_epoch_ = epoch + 1;
    overlay_.RebaseTo(snapshot_->existing(), snapshot_->candidates());
    PublishStateLocked();
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
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
    Deliver(&item, std::move(reply));
  }
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    compactor_stop_ = true;
  }
  compact_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (compactor_.joinable()) compactor_.join();
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
  m.oracle_cache_hits = oracle_cache_hits_.load(std::memory_order_relaxed);
  m.oracle_cache_misses =
      oracle_cache_misses_.load(std::memory_order_relaxed);
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
  m.overlay_size = state->overlay.delta().size();
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
