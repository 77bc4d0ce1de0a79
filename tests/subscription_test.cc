// Standing IFLS subscriptions: deterministic push semantics in admission-only
// mode (initial push, bound-based invalidation, skip accounting), trajectory
// ticks, unsubscribe, and the compaction-rebase regression — a subscription
// registered before a compaction cut must keep seeing mutations rebased past
// the cut.

#include "src/service/subscription.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/core/solve_dispatch.h"
#include "src/service/service.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

ServiceOptions InlineOptions() {
  ServiceOptions options;
  options.num_workers = 0;
  options.compaction_threshold = 0;
  return options;
}

/// Thread-safe push log for a subscription callback.
struct PushLog {
  std::mutex mu;
  std::vector<SubscriptionPush> pushes;

  SubscriptionCallback Callback() {
    return [this](const SubscriptionPush& push) {
      std::lock_guard<std::mutex> lock(mu);
      pushes.push_back(push);
    };
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return pushes.size();
  }
  SubscriptionPush at(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    return pushes.at(i);
  }
  SubscriptionPush back() {
    std::lock_guard<std::mutex> lock(mu);
    return pushes.back();
  }
};

/// From-scratch solve over the service's current composition with the given
/// crowd — what every delivered answer must match.
IflsResult FreshSolve(const IflsService& service,
                      const std::vector<Client>& clients) {
  const auto state = service.AcquireState();
  IflsContext ctx;
  ctx.oracle = &state->snapshot->tree();
  ctx.existing = state->effective_existing;
  ctx.candidates = state->effective_candidates;
  ctx.clients = clients;
  return Unwrap(SolveEfficient(ctx, service.options().solvers.minmax));
}

struct SubscriptionFixture {
  std::unique_ptr<IflsService> service;
  std::vector<Client> clients;  // mirror; ids are subscription client ids
  PushLog log;

  explicit SubscriptionFixture(std::uint64_t seed, std::size_t num_clients,
                               ServiceOptions options = InlineOptions()) {
    Rng rng(seed);
    Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
    const FacilitySets sets = Unwrap(SelectUniformFacilities(
        venue, 2 + rng.NextBounded(2), 5 + rng.NextBounded(6), &rng));
    for (std::size_t i = 0; i < num_clients; ++i) {
      clients.push_back(RandomClient(venue, &rng, static_cast<ClientId>(i)));
    }
    service = Unwrap(IflsService::Create(std::move(venue), sets.existing,
                                         sets.candidates, options));
  }
};

TEST(SubscriptionTest, InitialAnswerPushedSynchronously) {
  SubscriptionFixture f(101, 8);
  std::shared_ptr<Subscription> sub = Unwrap(
      f.service->Subscribe(f.clients, SubscriptionOptions{}, f.log.Callback()));

  ASSERT_EQ(f.log.size(), 1u);  // delivered before Subscribe returned
  const SubscriptionPush initial = f.log.at(0);
  EXPECT_EQ(initial.subscription_id, sub->id());
  EXPECT_EQ(initial.sequence, 0u);
  EXPECT_EQ(initial.version, 0u);
  EXPECT_EQ(initial.ticks_applied, 0u);

  const IflsResult fresh = FreshSolve(*f.service, f.clients);
  EXPECT_EQ(initial.result.found, fresh.found);
  EXPECT_EQ(initial.result.answer, fresh.answer);
  EXPECT_EQ(initial.result.objective, fresh.objective);  // bit-identical

  const Subscription::State state = sub->Current();
  EXPECT_EQ(state.pushes, 1u);
  EXPECT_EQ(state.version, 0u);
  EXPECT_EQ(f.service->Metrics().subscriptions_active, 1u);
}

TEST(SubscriptionTest, MutationsPushExactlyWhenInvalidating) {
  SubscriptionFixture f(102, 10);
  std::shared_ptr<Subscription> sub = Unwrap(
      f.service->Subscribe(f.clients, SubscriptionOptions{}, f.log.Callback()));

  // Drive a random mutation stream; with tolerance 0, after every accepted
  // mutation the standing answer must equal a from-scratch solve — whether
  // it was refreshed by a push or certified unchanged by the bound check.
  Rng rng(103);
  const std::size_t num_partitions =
      f.service->AcquireState()->snapshot->venue().num_partitions();
  std::uint64_t accepted = 0;
  for (int step = 0; step < 40; ++step) {
    Mutation m;
    m.kind = static_cast<MutationKind>(rng.NextBounded(4));
    m.partition = static_cast<PartitionId>(rng.NextBounded(num_partitions));
    std::uint64_t version = 0;
    if (!f.service->Mutate(m, &version).ok()) continue;
    ++accepted;
    ASSERT_EQ(version, accepted);

    const Subscription::State state = sub->Current();
    EXPECT_EQ(state.version, accepted);  // event folded inline

    const IflsResult fresh = FreshSolve(*f.service, f.clients);
    if (fresh.found) {
      ASSERT_TRUE(state.has_answer);
      EXPECT_EQ(state.objective, fresh.objective);  // exact, even on skips
    }
    if (f.log.back().version == accepted) {
      // This mutation pushed: the pushed answer is the from-scratch one.
      EXPECT_EQ(f.log.back().result.found, fresh.found);
      EXPECT_EQ(f.log.back().result.answer, fresh.answer);
      EXPECT_EQ(f.log.back().result.objective, fresh.objective);
    }
  }
  ASSERT_GT(accepted, 0u);
  const ServiceMetrics metrics = f.service->Metrics();
  EXPECT_EQ(metrics.subscription_events, accepted);
  // The whole point of the certified bound: not every event re-solves.
  EXPECT_GT(metrics.subscription_skips, 0u);
  EXPECT_LT(metrics.subscription_solves,
            static_cast<std::uint64_t>(accepted) + 1);
  EXPECT_EQ(metrics.subscription_pushes, f.log.size());
}

TEST(SubscriptionTest, TicksFoldMovesAndPushOnInvalidation) {
  SubscriptionFixture f(104, 6);
  std::shared_ptr<Subscription> sub = Unwrap(
      f.service->Subscribe(f.clients, SubscriptionOptions{}, f.log.Callback()));

  Rng rng(105);
  const Venue& venue = f.service->AcquireState()->snapshot->venue();
  for (int step = 0; step < 25; ++step) {
    const std::size_t idx = rng.NextBounded(f.clients.size());
    const Client moved = RandomClient(venue, &rng, f.clients[idx].id);
    ASSERT_TRUE(f.service
                    ->TickSubscription(sub->id(), f.clients[idx].id,
                                       moved.position, moved.partition)
                    .ok());
    f.clients[idx] = moved;

    const Subscription::State state = sub->Current();
    EXPECT_EQ(state.ticks_applied, static_cast<std::uint64_t>(step) + 1);
    const IflsResult fresh = FreshSolve(*f.service, f.clients);
    if (fresh.found) {
      ASSERT_TRUE(state.has_answer);
      EXPECT_EQ(state.objective, fresh.objective);
    }
    if (f.log.back().ticks_applied == static_cast<std::uint64_t>(step) + 1) {
      EXPECT_EQ(f.log.back().result.answer, fresh.answer);
      EXPECT_EQ(f.log.back().result.objective, fresh.objective);
    }
  }
}

TEST(SubscriptionTest, SurvivesCompactionRebase) {
  // Regression: a subscription registered before a compaction cut must keep
  // composing mutations rebased past the cut. Sequence: subscribe -> mutate
  // -> compact (overlay rebased, epoch bumped) -> mutate -> tick; the final
  // answer must equal a from-scratch solve over the final composition.
  SubscriptionFixture f(106, 8);
  std::shared_ptr<Subscription> sub = Unwrap(
      f.service->Subscribe(f.clients, SubscriptionOptions{}, f.log.Callback()));

  const auto boot_state = f.service->AcquireState();
  const std::vector<PartitionId> candidates(
      boot_state->effective_candidates);
  ASSERT_GE(candidates.size(), 2u);

  // Mutation 1: remove a candidate (forces real overlay content).
  Mutation m1;
  m1.kind = MutationKind::kRemoveCandidate;
  m1.partition = candidates.front();
  ASSERT_TRUE(f.service->Mutate(m1).ok());

  // Fold the overlay into a fresh snapshot; the overlay rebases to empty.
  ASSERT_TRUE(f.service->CompactNow().ok());
  EXPECT_GT(f.service->snapshot_epoch(), 0u);
  EXPECT_EQ(f.service->AcquireState()->overlay_size, 0u);

  // Mutation 2, after the cut: remove another candidate.
  Mutation m2;
  m2.kind = MutationKind::kRemoveCandidate;
  m2.partition = candidates.back();
  std::uint64_t version = 0;
  ASSERT_TRUE(f.service->Mutate(m2, &version).ok());
  EXPECT_EQ(version, 2u);

  // And a tick on top.
  Rng rng(107);
  const Venue& venue = f.service->AcquireState()->snapshot->venue();
  const Client moved = RandomClient(venue, &rng, f.clients[0].id);
  ASSERT_TRUE(f.service
                  ->TickSubscription(sub->id(), f.clients[0].id,
                                     moved.position, moved.partition)
                  .ok());
  f.clients[0] = moved;

  const Subscription::State state = sub->Current();
  EXPECT_EQ(state.version, 2u);
  EXPECT_EQ(state.ticks_applied, 1u);
  const IflsResult fresh = FreshSolve(*f.service, f.clients);
  if (fresh.found) {
    ASSERT_TRUE(state.has_answer);
    EXPECT_EQ(state.objective, fresh.objective);
    // Neither removed candidate can be the standing answer anymore.
    EXPECT_NE(state.answer, m1.partition);
    EXPECT_NE(state.answer, m2.partition);
  }
  const SubscriptionPush last = f.log.back();
  if (last.version == 2u && last.ticks_applied == 1u) {
    EXPECT_EQ(last.result.answer, fresh.answer);
    EXPECT_EQ(last.result.objective, fresh.objective);
  }
}

TEST(SubscriptionTest, UnsubscribeStopsDeliveries) {
  SubscriptionFixture f(108, 5);
  std::shared_ptr<Subscription> sub = Unwrap(
      f.service->Subscribe(f.clients, SubscriptionOptions{}, f.log.Callback()));
  ASSERT_EQ(f.log.size(), 1u);

  ASSERT_TRUE(f.service->Unsubscribe(sub->id()).ok());
  EXPECT_TRUE(f.service->Unsubscribe(sub->id()).IsNotFound());
  EXPECT_EQ(f.service->Metrics().subscriptions_active, 0u);
  EXPECT_TRUE(f.service
                  ->TickSubscription(sub->id(), 0, f.clients[0].position,
                                     f.clients[0].partition)
                  .IsNotFound());

  const std::vector<PartitionId> candidates(
      f.service->AcquireState()->effective_candidates);
  Mutation m;
  m.kind = MutationKind::kRemoveCandidate;
  m.partition = candidates.front();
  ASSERT_TRUE(f.service->Mutate(m).ok());
  EXPECT_EQ(f.log.size(), 1u);  // nothing new after unsubscribe

  // The handle stays readable after deregistration.
  EXPECT_EQ(sub->Current().pushes, 1u);
}

TEST(SubscriptionTest, ValidatesArguments) {
  SubscriptionFixture f(109, 3);
  const SubscriptionCallback noop = [](const SubscriptionPush&) {};
  SubscriptionOptions bad_tolerance;
  bad_tolerance.tolerance = -0.1;
  EXPECT_TRUE(f.service->Subscribe(f.clients, bad_tolerance, noop)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(f.service->Subscribe(f.clients, SubscriptionOptions{}, nullptr)
                  .status()
                  .IsInvalidArgument());

  std::vector<Client> misplaced = f.clients;
  misplaced[0].position = Point(1e9, 1e9, 0);
  EXPECT_TRUE(f.service->Subscribe(misplaced, SubscriptionOptions{}, noop)
                  .status()
                  .IsInvalidArgument());

  std::shared_ptr<Subscription> sub = Unwrap(
      f.service->Subscribe(f.clients, SubscriptionOptions{}, f.log.Callback()));
  EXPECT_TRUE(f.service
                  ->TickSubscription(sub->id(), 0, Point(1e9, 1e9, 0),
                                     f.clients[0].partition)
                  .IsInvalidArgument());
  EXPECT_TRUE(f.service
                  ->TickSubscription(9999, 0, f.clients[0].position,
                                     f.clients[0].partition)
                  .IsNotFound());
}

TEST(SubscriptionTest, ToleranceTradesPushesForSkips) {
  // Geometry where the certified bound is provably decisive: one client in
  // the TinyVenue corridor between candidate doors at x=10 and x=20, the
  // only existing facility a level away (its distance never binds). With
  // moves restricted to x in (12, 18), the cached answer's distance stays
  // within a factor 8/2 = 4 of the nearest-candidate floor, so a
  // tolerance-10 subscription (skip factor 11) never re-solves after the
  // initial answer — while the exact one must re-solve on every midpoint
  // crossing and may skip only on same-side nudges.
  testing_util::TinyVenue t = testing_util::BuildTinyVenue();
  std::vector<Client> clients(1);
  clients[0].id = 0;
  clients[0].position = Point(13, 2, 0);
  clients[0].partition = t.corridor;
  std::unique_ptr<IflsService> service = Unwrap(
      IflsService::Create(std::move(t.venue), {t.room_d},
                          {t.room_a, t.room_b}, InlineOptions()));

  PushLog exact_log;
  PushLog loose_log;
  std::shared_ptr<Subscription> exact_sub = Unwrap(
      service->Subscribe(clients, SubscriptionOptions{},
                         exact_log.Callback()));
  SubscriptionOptions loose_options;
  loose_options.tolerance = 10.0;
  std::shared_ptr<Subscription> loose_sub = Unwrap(
      service->Subscribe(clients, loose_options, loose_log.Callback()));

  Rng rng(111);
  int crossings = 0;
  double prev_x = 13.0;
  for (int step = 0; step < 30; ++step) {
    const double x = rng.NextUniform(12.0, 18.0);
    if ((prev_x < 15.0) != (x < 15.0)) ++crossings;
    prev_x = x;
    const Point nudged(x, 2, 0);
    ASSERT_TRUE(
        service->TickSubscription(exact_sub->id(), 0, nudged, t.corridor)
            .ok());
    ASSERT_TRUE(
        service->TickSubscription(loose_sub->id(), 0, nudged, t.corridor)
            .ok());
  }
  ASSERT_GT(crossings, 0);  // the fixed seed does cross the midpoint

  const Subscription::State exact_state = exact_sub->Current();
  const Subscription::State loose_state = loose_sub->Current();
  EXPECT_EQ(loose_state.solves, 1);   // the initial answer, nothing since
  EXPECT_EQ(loose_state.skips, 30);
  EXPECT_EQ(loose_log.size(), 1u);
  EXPECT_GE(exact_state.solves, 1 + crossings);
  EXPECT_GT(exact_state.skips, 0);
  EXPECT_GT(exact_log.size(), loose_log.size());
}

TEST(SubscriptionTest, WorkerModeDeliversAfterDrain) {
  ServiceOptions options;
  options.num_workers = 2;
  options.compaction_threshold = 0;
  SubscriptionFixture f(112, 8, options);
  std::shared_ptr<Subscription> sub = Unwrap(
      f.service->Subscribe(f.clients, SubscriptionOptions{}, f.log.Callback()));
  ASSERT_EQ(f.log.size(), 1u);  // initial is synchronous even with workers

  const std::vector<PartitionId> candidates(
      f.service->AcquireState()->effective_candidates);
  std::uint64_t accepted = 0;
  for (PartitionId p : candidates) {
    Mutation m;
    m.kind = MutationKind::kRemoveCandidate;
    m.partition = p;
    if (f.service->Mutate(m).ok()) ++accepted;
  }
  f.service->Drain();  // waits for pending subscription pumps too
  const Subscription::State state = sub->Current();
  EXPECT_EQ(state.version, accepted);
  EXPECT_EQ(state.events_processed, accepted);
  const IflsResult fresh = FreshSolve(*f.service, f.clients);
  EXPECT_EQ(state.has_answer, fresh.found);  // all candidates removed
}

}  // namespace
}  // namespace ifls
