#include "src/service/subscription.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/trace.h"

namespace ifls {

Subscription::Subscription(std::uint64_t id, SubscriptionOptions options,
                           SubscriptionCallback callback,
                           std::shared_ptr<const ServingState> pinned,
                           const EfficientOptions& solver, Sink sink)
    : id_(id),
      options_(options),
      callback_(std::move(callback)),
      pinned_(std::move(pinned)),
      sink_(sink),
      // The monitor starts from the effective (snapshot ⊕ overlay) sets at
      // registration and thereafter mirrors the service's accepted mutation
      // stream, so its sets always equal the service's composition at the
      // folded version. Distances come from the pinned tree, as for queries.
      monitor_(&pinned_->snapshot->tree(), pinned_->effective_existing,
               pinned_->effective_candidates,
               ContinuousIfls::Options{solver}) {}

Subscription::State Subscription::Current() const {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  State state;
  state.has_answer = monitor_.has_cached_answer();
  state.answer = monitor_.cached_answer();
  if (state.has_answer) state.objective = monitor_.certified_objective();
  state.version = version_;
  state.ticks_applied = ticks_applied_;
  state.events_processed = events_processed_;
  state.pushes = pushes_;
  state.solves = monitor_.solve_count();
  state.skips = monitor_.skip_count();
  return state;
}

void Subscription::DeliverInitialLocked(Clock::time_point subscribed_at) {
  Result<IflsResult> answer = monitor_.Answer();
  if (!answer.ok()) {
    IFLS_LOG(ERROR) << "subscription " << id_ << " initial solve failed: "
                    << answer.status().ToString();
    return;
  }
  if (sink_.solves != nullptr) {
    sink_.solves->fetch_add(1, std::memory_order_relaxed);
  }
  PushLocked(answer.value(), subscribed_at);
}

void Subscription::EnqueueMutation(const Mutation& mutation,
                                   std::uint64_t version,
                                   Clock::time_point now) {
  Event event;
  event.kind = Event::Kind::kMutation;
  event.mutation = mutation;
  event.version = version;
  event.enqueued_at = now;
  std::lock_guard<std::mutex> lock(events_mu_);
  if (closed_) return;
  pending_.push_back(event);
}

void Subscription::EnqueueTick(ClientId client, const Point& position,
                               PartitionId partition, Clock::time_point now) {
  Event event;
  event.kind = Event::Kind::kTick;
  event.client = client;
  event.position = position;
  event.partition = partition;
  event.enqueued_at = now;
  std::lock_guard<std::mutex> lock(events_mu_);
  if (closed_) return;
  pending_.push_back(event);
}

void Subscription::Pump() {
  TraceSpan span(TraceCategory::kService, "subscription_pump");
  std::lock_guard<std::mutex> lock(monitor_mu_);
  for (;;) {
    Event event;
    {
      std::lock_guard<std::mutex> elock(events_mu_);
      if (pending_.empty()) return;
      event = pending_.front();
      pending_.pop_front();
    }
    ProcessEventLocked(event);
  }
}

void Subscription::Close() {
  std::lock_guard<std::mutex> lock(events_mu_);
  closed_ = true;
  pending_.clear();
}

void Subscription::ProcessEventLocked(const Event& event) {
  ++events_processed_;
  if (sink_.events != nullptr) {
    sink_.events->fetch_add(1, std::memory_order_relaxed);
  }
  Status applied = Status::OK();
  switch (event.kind) {
    case Event::Kind::kMutation:
      switch (event.mutation.kind) {
        case MutationKind::kAddFacility:
          applied = monitor_.AddExistingFacility(event.mutation.partition);
          break;
        case MutationKind::kRemoveFacility:
          applied = monitor_.RemoveExistingFacility(event.mutation.partition);
          break;
        case MutationKind::kAddCandidate:
          applied = monitor_.AddCandidateFacility(event.mutation.partition);
          break;
        case MutationKind::kRemoveCandidate:
          applied = monitor_.RemoveCandidateFacility(event.mutation.partition);
          break;
      }
      // The service only forwards overlay-accepted mutations and the monitor
      // mirrors that exact stream, so folding cannot fail; version tracking
      // stays monotonic either way.
      version_ = event.version;
      break;
    case Event::Kind::kTick:
      applied = monitor_.MoveClient(event.client, event.position,
                                    event.partition);
      if (applied.ok()) ++ticks_applied_;
      break;
  }
  if (!applied.ok()) {
    IFLS_LOG(ERROR) << "subscription " << id_ << " failed to fold event: "
                    << applied.ToString();
    return;
  }
  // Bound-based invalidation: the continuous engine's certified lower bound
  // decides in O(1) whether the cached answer survives this event.
  Result<ContinuousIfls::MonitorAnswer> answer =
      monitor_.AnswerWithin(options_.tolerance);
  if (!answer.ok()) {
    IFLS_LOG(ERROR) << "subscription " << id_ << " re-solve failed: "
                    << answer.status().ToString();
    return;
  }
  if (answer.value().refreshed) {
    if (sink_.solves != nullptr) {
      sink_.solves->fetch_add(1, std::memory_order_relaxed);
    }
    PushLocked(answer.value().result, event.enqueued_at);
  } else if (sink_.skips != nullptr) {
    sink_.skips->fetch_add(1, std::memory_order_relaxed);
  }
}

void Subscription::PushLocked(const IflsResult& result,
                              Clock::time_point enqueued_at) {
  SubscriptionPush push;
  push.subscription_id = id_;
  push.sequence = sequence_++;
  push.version = version_;
  push.ticks_applied = ticks_applied_;
  push.result = result;
  push.latency_seconds =
      std::chrono::duration<double>(Clock::now() - enqueued_at).count();
  ++pushes_;
  if (sink_.pushes != nullptr) {
    sink_.pushes->fetch_add(1, std::memory_order_relaxed);
  }
  if (sink_.push_seconds != nullptr) {
    sink_.push_seconds->Record(push.latency_seconds);
  }
  if (callback_) {
    TraceSpan span(TraceCategory::kService, "subscription_push");
    callback_(push);
  }
}

}  // namespace ifls
