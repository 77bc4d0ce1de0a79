// Randomized invalidation fuzz harness for streaming iterators and standing
// subscriptions (DESIGN.md §11). Many threads interleave facility mutations,
// trajectory ticks, snapshot compactions and iterator pagination against one
// service; the harness then proves that every answer the service ever
// delivered — each subscription push and each drained iterator — is
// bit-identical to a from-scratch SolveEfficient at the exact (version,
// ticks) it claims:
//
//   * mutators log (version -> mutation) for every accepted Mutate, so any
//     version's facility sets can be recomposed as boot sets + a prefix of
//     the log;
//   * each subscription is owned by one tick thread, whose accepted-move log
//     makes push.ticks_applied a prefix length into the client history;
//   * pagers check in-flight: an open iterator's drained pages must equal
//     the one-shot full ranking over the iterator's own pinned state.
//
// Carries its own main() so `--iterations=<n|high>` can scale the run (the
// `high` row is the nightly ctest configuration), and exports the span
// recorder to subscription_fuzz.trace.json when a run fails with tracing on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/trace.h"
#include "src/core/solve_dispatch.h"
#include "src/service/service.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

// Total interleaved operations across all threads; overridden by
// --iterations. The default already exceeds the 10k-step floor the harness
// promises.
int g_total_steps = 12000;

struct MutationLog {
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, Mutation>> entries;

  void Append(std::uint64_t version, const Mutation& m) {
    std::lock_guard<std::mutex> lock(mu);
    entries.emplace_back(version, m);
  }
};

struct TickRecord {
  ClientId client = 0;
  Point position;
  PartitionId partition = kInvalidPartition;
};

/// One standing query under fuzz: the live handle, its boot crowd, the
/// owner-thread move log and the delivered pushes.
struct SubHarness {
  std::shared_ptr<Subscription> sub;
  std::vector<Client> boot_clients;  // ids 0..n-1, registration order
  std::vector<TickRecord> ticks;     // accepted moves, owner thread only

  std::mutex push_mu;
  std::vector<SubscriptionPush> pushes;

  SubscriptionCallback Callback() {
    return [this](const SubscriptionPush& push) {
      std::lock_guard<std::mutex> lock(push_mu);
      pushes.push_back(push);
    };
  }
};

/// Composes the facility sets at `version`: boot sets plus the sorted
/// mutation-log prefix. The log must hold contiguous versions 1..N.
struct SetComposer {
  std::vector<PartitionId> boot_existing;
  std::vector<PartitionId> boot_candidates;
  std::vector<Mutation> by_version;  // by_version[v-1] produced version v

  void Compose(std::uint64_t version, std::vector<PartitionId>* existing,
               std::vector<PartitionId>* candidates) const {
    *existing = boot_existing;
    *candidates = boot_candidates;
    for (std::uint64_t v = 0; v < version; ++v) {
      const Mutation& m = by_version[v];
      auto insert = [](std::vector<PartitionId>* s, PartitionId p) {
        s->insert(std::upper_bound(s->begin(), s->end(), p), p);
      };
      auto erase = [](std::vector<PartitionId>* s, PartitionId p) {
        s->erase(std::find(s->begin(), s->end(), p));
      };
      switch (m.kind) {
        case MutationKind::kAddFacility:
          insert(existing, m.partition);
          break;
        case MutationKind::kRemoveFacility:
          erase(existing, m.partition);
          break;
        case MutationKind::kAddCandidate:
          insert(candidates, m.partition);
          break;
        case MutationKind::kRemoveCandidate:
          erase(candidates, m.partition);
          break;
      }
    }
  }
};

TEST(SubscriptionFuzzTest, PushedAndPagedAnswersMatchFromScratchSolves) {
  Rng boot_rng(2023);
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  const std::size_t num_partitions = venue.num_partitions();
  const FacilitySets boot_sets =
      Unwrap(SelectUniformFacilities(venue, 3, 8, &boot_rng));

  ServiceOptions options;
  options.num_workers = 2;           // pumps run on workers, concurrently
  options.compaction_threshold = 0;  // compaction points are fuzz actions
  std::unique_ptr<IflsService> service = Unwrap(IflsService::Create(
      std::move(venue), boot_sets.existing, boot_sets.candidates, options));

  SetComposer composer;
  composer.boot_existing = boot_sets.existing;
  composer.boot_candidates = boot_sets.candidates;
  std::sort(composer.boot_existing.begin(), composer.boot_existing.end());
  std::sort(composer.boot_candidates.begin(), composer.boot_candidates.end());

  // Pin the boot state for the whole run: the venue reference the threads
  // generate positions from, and the oracle every replay solves against
  // (snapshots share the tree, so distances are identical at any epoch).
  const auto boot_state = service->AcquireState();
  const Venue& boot_venue = boot_state->snapshot->venue();
  const EfficientOptions solver = service->options().solvers.minmax;

  constexpr int kTickOwners = 4;
  constexpr int kSubsPerOwner = 2;
  constexpr int kMutators = 2;
  constexpr int kPagers = 2;
  constexpr std::size_t kClientsPerSub = 3;

  std::vector<std::unique_ptr<SubHarness>> subs;
  for (int i = 0; i < kTickOwners * kSubsPerOwner; ++i) {
    auto harness = std::make_unique<SubHarness>();
    for (std::size_t c = 0; c < kClientsPerSub; ++c) {
      harness->boot_clients.push_back(
          RandomClient(boot_venue, &boot_rng, static_cast<ClientId>(c)));
    }
    harness->sub = Unwrap(service->Subscribe(
        harness->boot_clients, SubscriptionOptions{}, harness->Callback()));
    subs.push_back(std::move(harness));
  }

  MutationLog mutation_log;
  std::atomic<std::uint64_t> accepted_mutations{0};
  std::atomic<std::uint64_t> accepted_ticks{0};

  // Fixed per-thread step quotas (summing to g_total_steps) instead of one
  // shared budget: thread speeds differ wildly — ticks are cheap, mutations
  // serialize behind the writer lock — and a shared pool lets the fast
  // roles starve the slow ones of their coverage.
  const int steps_per_thread =
      std::max(1, g_total_steps / (kMutators + kTickOwners + kPagers));
  std::atomic<int> fuzzers_running{kMutators + kTickOwners + kPagers};
  // Decrements on every exit path — gtest ASSERTs return early, and the
  // compactor must not keep spinning after a failed thread bails out.
  struct RunningGuard {
    std::atomic<int>* count;
    ~RunningGuard() { count->fetch_sub(1); }
  };

  std::vector<std::thread> threads;

  // Mutators: random facility mutations, logging (version -> mutation) for
  // every accepted one.
  for (int t = 0; t < kMutators; ++t) {
    threads.emplace_back([&, t] {
      RunningGuard guard{&fuzzers_running};
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int step = 0; step < steps_per_thread; ++step) {
        Mutation m;
        m.kind = static_cast<MutationKind>(rng.NextBounded(4));
        m.partition = static_cast<PartitionId>(rng.NextBounded(num_partitions));
        std::uint64_t version = 0;
        if (service->Mutate(m, &version).ok()) {
          mutation_log.Append(version, m);
          accepted_mutations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Tick owners: each drives the trajectories of its own subscriptions, so
  // per-subscription move logs need no synchronization.
  for (int t = 0; t < kTickOwners; ++t) {
    threads.emplace_back([&, t] {
      RunningGuard guard{&fuzzers_running};
      Rng rng(2000 + static_cast<std::uint64_t>(t));
      for (int step = 0; step < steps_per_thread; ++step) {
        SubHarness& h =
            *subs[static_cast<std::size_t>(t) * kSubsPerOwner +
                  rng.NextBounded(kSubsPerOwner)];
        const std::size_t idx = rng.NextBounded(h.boot_clients.size());
        const ClientId id = static_cast<ClientId>(idx);
        const Client moved = RandomClient(boot_venue, &rng, id);
        const Status ticked = service->TickSubscription(
            h.sub->id(), id, moved.position, moved.partition);
        ASSERT_TRUE(ticked.ok()) << ticked.ToString();
        h.ticks.push_back({id, moved.position, moved.partition});
        accepted_ticks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Compactor: folds the overlay under everything else, for as long as any
  // fuzzing thread is still running.
  threads.emplace_back([&] {
    while (fuzzers_running.load(std::memory_order_relaxed) > 0) {
      ASSERT_TRUE(service->CompactNow().ok());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Pagers: open an iterator at whatever state is current, drain it with
  // random page sizes, and demand the concatenation equal the one-shot full
  // ranking over the iterator's own pinned state.
  for (int t = 0; t < kPagers; ++t) {
    threads.emplace_back([&, t] {
      RunningGuard guard{&fuzzers_running};
      Rng rng(3000 + static_cast<std::uint64_t>(t));
      for (int step = 0; step < steps_per_thread; ++step) {
        std::vector<Client> crowd;
        const std::size_t n = 1 + rng.NextBounded(4);
        for (std::size_t i = 0; i < n; ++i) {
          crowd.push_back(
              RandomClient(boot_venue, &rng, static_cast<ClientId>(i)));
        }
        ServiceRequest request;
        request.clients = crowd;
        auto opened = service->OpenIterator(std::move(request));
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        std::unique_ptr<ResultIterator> it = std::move(*opened);

        IflsContext ctx;
        ctx.oracle = &it->state()->snapshot->tree();
        ctx.existing = it->state()->effective_existing;
        ctx.candidates = it->state()->effective_candidates;
        ctx.clients = crowd;
        EfficientOptions ranked = solver;
        ranked.top_k = static_cast<int>(
            std::max<std::size_t>(1, ctx.candidates.size()));
        const auto reference = SolveEfficient(ctx, ranked);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();

        std::vector<std::pair<PartitionId, double>> paged;
        while (!it->exhausted()) {
          const ResultIterator::Page page = it->Next(1 + rng.NextBounded(5));
          paged.insert(paged.end(), page.items.begin(), page.items.end());
        }
        ASSERT_EQ(paged, reference->ranked)
            << "iterator at version " << it->version() << " diverged";
      }
    });
  }

  ASSERT_GE(static_cast<int>(threads.size()), 8);
  for (std::thread& t : threads) t.join();
  service->Drain();  // fold + deliver everything still queued

  // --- Replay ---------------------------------------------------------------
  // The mutation log, sorted by version, must be exactly 1..N.
  {
    std::lock_guard<std::mutex> lock(mutation_log.mu);
    std::sort(mutation_log.entries.begin(), mutation_log.entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(mutation_log.entries.size(),
              accepted_mutations.load(std::memory_order_relaxed));
    for (std::size_t i = 0; i < mutation_log.entries.size(); ++i) {
      ASSERT_EQ(mutation_log.entries[i].first, i + 1) << "version gap";
      composer.by_version.push_back(mutation_log.entries[i].second);
    }
  }

  // Every push every subscription ever delivered must be bit-identical to a
  // from-scratch solve at its claimed (version, ticks_applied).
  std::size_t replayed = 0;
  for (const std::unique_ptr<SubHarness>& h : subs) {
    std::vector<SubscriptionPush> pushes;
    {
      std::lock_guard<std::mutex> lock(h->push_mu);
      pushes = h->pushes;
    }
    ASSERT_FALSE(pushes.empty());  // at least the initial answer
    EXPECT_EQ(pushes.front().sequence, 0u);
    std::uint64_t last_sequence = 0;
    for (const SubscriptionPush& push : pushes) {
      SCOPED_TRACE(::testing::Message()
                   << "sub " << h->sub->id() << " push seq " << push.sequence
                   << " version " << push.version << " ticks "
                   << push.ticks_applied);
      if (push.sequence != 0) {
        EXPECT_EQ(push.sequence, last_sequence + 1);  // no lost pushes
        last_sequence = push.sequence;
      }
      ASSERT_LE(push.ticks_applied, h->ticks.size());

      IflsContext ctx;
      ctx.oracle = &boot_state->snapshot->tree();
      composer.Compose(push.version, &ctx.existing, &ctx.candidates);
      std::vector<Client> crowd = h->boot_clients;
      for (std::uint64_t i = 0; i < push.ticks_applied; ++i) {
        const TickRecord& tick = h->ticks[i];
        crowd[static_cast<std::size_t>(tick.client)].position = tick.position;
        crowd[static_cast<std::size_t>(tick.client)].partition =
            tick.partition;
      }
      ctx.clients = crowd;
      const auto fresh = SolveEfficient(ctx, solver);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_EQ(push.result.found, fresh->found);
      EXPECT_EQ(push.result.answer, fresh->answer);
      EXPECT_EQ(push.result.objective, fresh->objective);  // bit-identical
      ++replayed;
    }
  }

  // Accounting: every accepted mutation fanned out to every subscription,
  // every accepted tick to exactly one, and all of it was folded.
  const ServiceMetrics metrics = service->Metrics();
  EXPECT_EQ(metrics.subscription_events,
            accepted_mutations.load() * subs.size() + accepted_ticks.load());
  EXPECT_EQ(metrics.subscription_pushes, static_cast<std::uint64_t>(replayed));
  EXPECT_GT(metrics.subscription_skips, 0u);  // the bound did elide work
  std::printf(
      "fuzz: %d steps, %llu mutations, %llu ticks, %llu compaction epochs, "
      "%zu pushes replayed, %llu solves, %llu skips\n",
      g_total_steps, static_cast<unsigned long long>(accepted_mutations.load()),
      static_cast<unsigned long long>(accepted_ticks.load()),
      static_cast<unsigned long long>(service->snapshot_epoch()), replayed,
      static_cast<unsigned long long>(metrics.subscription_solves),
      static_cast<unsigned long long>(metrics.subscription_skips));

  for (const std::unique_ptr<SubHarness>& h : subs) {
    EXPECT_TRUE(service->Unsubscribe(h->sub->id()).ok());
  }
}

}  // namespace
}  // namespace ifls

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--iterations=", 13) != 0) continue;
    const std::string value = arg + 13;
    if (value == "high") {
      ifls::g_total_steps = 120000;  // nightly configuration
    } else {
      ifls::g_total_steps = std::max(1, std::atoi(value.c_str()));
    }
  }
  const int result = RUN_ALL_TESTS();
  if (result != 0 && ifls::TraceEnabled()) {
    const char* path = "subscription_fuzz.trace.json";
    const ifls::Status exported =
        ifls::TraceRecorder::Global().ExportChromeTraceToFile(path);
    std::fprintf(stderr, "trace export to %s: %s\n", path,
                 exported.ToString().c_str());
  }
  return result;
}
