// Concurrency suite for the online service (run under TSan via the
// `parallel` ctest label): query threads hammer SubmitQuery/Query while a
// mutator drifts the facility sets and its threshold-crossing mutations
// compact inline, publishing snapshots. Readers must never block or crash, epochs must be monotonic
// per observer, and a pinned ServingState must stay fully usable across
// publications.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <thread>
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

struct Fixture {
  Venue venue;
  std::vector<PartitionId> existing;
  std::vector<PartitionId> candidates;
  std::vector<PartitionId> pool;  // unassigned partitions the mutator uses
  std::vector<Client> clients;
  std::unique_ptr<IflsService> service;
};

Fixture MakeFixture(const ServiceOptions& options) {
  Fixture f;
  f.venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  Rng rng(404);
  FacilitySets sets = Unwrap(SelectUniformFacilities(f.venue, 3, 4, &rng));
  f.existing = std::move(sets.existing);
  f.candidates = std::move(sets.candidates);
  std::vector<bool> taken(f.venue.num_partitions(), false);
  for (PartitionId p : f.existing) taken[static_cast<std::size_t>(p)] = true;
  for (PartitionId p : f.candidates) taken[static_cast<std::size_t>(p)] = true;
  for (std::size_t p = 0; p < f.venue.num_partitions(); ++p) {
    if (!taken[p]) f.pool.push_back(static_cast<PartitionId>(p));
  }
  for (int i = 0; i < 24; ++i) {
    f.clients.push_back(RandomClient(f.venue, &rng, static_cast<ClientId>(i)));
  }
  Venue copy = Unwrap(GenerateVenue(SmallVenueSpec()));
  f.service = Unwrap(
      IflsService::Create(std::move(copy), f.existing, f.candidates, options));
  return f;
}

TEST(ServiceConcurrentTest, QueriesSurviveMutationsAndCompactions) {
  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 256;
  options.compaction_threshold = 3;  // publish often
  Fixture f = MakeFixture(options);

  constexpr int kClientThreads = 4;
  constexpr int kQueriesPerThread = 40;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<bool> epoch_regressed{false};
  std::atomic<bool> wrong_status{false};

  std::vector<std::thread> clients_threads;
  for (int t = 0; t < kClientThreads; ++t) {
    clients_threads.emplace_back([&, t] {
      std::uint64_t last_epoch = 0;
      // Meet the quota AND see at least 3 publications (bounded overall so
      // a missing compaction fails the test instead of hanging it).
      for (int i = 0; i < kQueriesPerThread ||
                      (f.service->snapshot_epoch() < 3 && i < 2000);
           ++i) {
        ServiceRequest req;
        req.objective = static_cast<IflsObjective>((t + i) % 3);
        req.clients = f.clients;
        const ServiceReply reply = f.service->Query(std::move(req));
        if (reply.status.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          // Publication epochs observed by one sequential client must
          // never move backwards.
          if (reply.snapshot_epoch < last_epoch) epoch_regressed = true;
          last_epoch = reply.snapshot_epoch;
        } else if (reply.status.IsUnavailable()) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          wrong_status = true;
        }
      }
    });
  }

  // The mutator cycles pool partitions through candidate / facility roles,
  // which keeps crossing the compaction threshold.
  std::atomic<bool> stop_mutator{false};
  std::thread mutator([&] {
    Rng mrng(7);
    std::size_t i = 0;
    // Additions are removed with a lag, so the net overlay keeps swelling
    // past the compaction threshold instead of cancelling immediately.
    std::deque<std::pair<PartitionId, bool>> live;
    while (!stop_mutator.load(std::memory_order_relaxed)) {
      const PartitionId p = f.pool[i % f.pool.size()];
      const bool candidate = mrng.NextBounded(2) == 0;
      if (f.service
              ->Mutate({candidate ? MutationKind::kAddCandidate
                                  : MutationKind::kAddFacility,
                        p})
              .ok()) {
        live.emplace_back(p, candidate);
      }
      while (live.size() > 4) {
        const auto [victim, was_candidate] = live.front();
        live.pop_front();
        (void)f.service->Mutate({was_candidate
                                     ? MutationKind::kRemoveCandidate
                                     : MutationKind::kRemoveFacility,
                                 victim});
      }
      ++i;
      std::this_thread::yield();
    }
  });

  for (std::thread& t : clients_threads) t.join();
  stop_mutator = true;
  mutator.join();
  f.service->Drain();

  EXPECT_FALSE(epoch_regressed.load());
  EXPECT_FALSE(wrong_status.load());
  EXPECT_GE(ok.load() + shed.load(),
            static_cast<std::uint64_t>(kClientThreads * kQueriesPerThread));
  EXPECT_GT(ok.load(), 0u);

  // Force the tail of the overlay through and require the run to have
  // crossed several publications.
  ASSERT_TRUE(f.service->CompactNow().ok());
  const ServiceMetrics m = f.service->Metrics();
  EXPECT_GE(m.snapshot_epoch, 3u);
  EXPECT_GE(m.compactions, 3u);
  EXPECT_EQ(m.failed, 0u);
}

TEST(ServiceConcurrentTest, PinnedStateStaysSolvableAcrossPublications) {
  ServiceOptions options;
  options.num_workers = 2;
  options.compaction_threshold = 0;
  Fixture f = MakeFixture(options);

  const auto pinned = f.service->AcquireState();

  // Concurrent solver on the pinned state while the writer publishes.
  std::atomic<bool> solver_failed{false};
  std::thread reader([&] {
    for (int i = 0; i < 8; ++i) {
      IflsContext ctx;
      ctx.oracle = &pinned->snapshot->tree();
      ctx.existing = pinned->effective_existing;
      ctx.candidates = pinned->effective_candidates;
      ctx.clients = f.clients;
      if (!SolveWithObjective(static_cast<IflsObjective>(i % 3), ctx).ok()) {
        solver_failed = true;
      }
    }
  });

  for (int round = 0; round < 4; ++round) {
    const PartitionId p = f.pool[static_cast<std::size_t>(round)];
    ASSERT_TRUE(f.service->Mutate({MutationKind::kAddCandidate, p}).ok());
    ASSERT_TRUE(f.service->CompactNow().ok());
  }
  reader.join();

  EXPECT_FALSE(solver_failed.load());
  EXPECT_EQ(pinned->snapshot->epoch(), 0u);  // old version, still intact
  EXPECT_EQ(f.service->AcquireState()->snapshot->epoch(), 4u);
}

TEST(ServiceConcurrentTest, ConcurrentMutatorsStayConsistent) {
  ServiceOptions options;
  options.num_workers = 1;
  options.compaction_threshold = 5;
  Fixture f = MakeFixture(options);

  // Two mutators fight over the same pool; the overlay's validation must
  // serialize them into a consistent effective state (disjoint Fe/Fn).
  std::vector<std::thread> mutators;
  for (int t = 0; t < 2; ++t) {
    mutators.emplace_back([&, t] {
      Rng mrng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 200; ++i) {
        const PartitionId p = f.pool[mrng.NextBounded(f.pool.size())];
        const Mutation m{static_cast<MutationKind>(mrng.NextBounded(4)), p};
        (void)f.service->Mutate(m);  // rejections are expected here
      }
    });
  }
  for (std::thread& t : mutators) t.join();

  const auto state = f.service->AcquireState();
  const auto& fe = state->effective_existing;
  const auto& fn = state->effective_candidates;
  EXPECT_TRUE(std::is_sorted(fe.begin(), fe.end()));
  EXPECT_TRUE(std::is_sorted(fn.begin(), fn.end()));
  std::vector<PartitionId> both;
  std::set_intersection(fe.begin(), fe.end(), fn.begin(), fn.end(),
                        std::back_inserter(both));
  EXPECT_TRUE(both.empty());

  // And the composed state still answers queries.
  ServiceRequest req;
  req.objective = IflsObjective::kMinMax;
  req.clients = f.clients;
  EXPECT_TRUE(f.service->Query(std::move(req)).status.ok());
}

}  // namespace
}  // namespace ifls
