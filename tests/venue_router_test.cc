// VenueRouter tests: fleet snapshot round-trip, lazy hydration, routed
// query correctness against a directly-built solver, LRU eviction under a
// resident-memory budget, warm reload after eviction, a corrupt snapshot
// failing cleanly, and queries and metrics scrapes racing eviction/reload
// (run under TSan via the `parallel` label).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics_registry.h"
#include "src/core/solve_dispatch.h"
#include "src/datasets/client_generator.h"
#include "src/datasets/facility_selector.h"
#include "src/datasets/venue_generator.h"
#include "src/index/vip_tree_io_v3.h"
#include "src/service/fleet_store.h"
#include "src/service/venue_router.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::Unwrap;

/// A disposable fleet directory with `count` distinct small venues.
class VenueRouterTest : public ::testing::Test {
 protected:
  void BuildFleet(int count) {
    root_ = ::testing::TempDir() + "/ifls_fleet_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    for (int i = 0; i < count; ++i) {
      VenueGeneratorSpec spec = testing_util::SmallVenueSpec();
      spec.name = "venue" + std::to_string(i);
      spec.rooms_per_level += 4 * i;  // distinct sizes
      spec.door_jitter_seed = static_cast<std::uint64_t>(i + 1);
      venues_.push_back(Unwrap(GenerateVenue(spec)));
      Venue& venue = venues_.back();
      VipTree tree = Unwrap(VipTree::Build(&venue));
      Rng rng(static_cast<std::uint64_t>(100 + i));
      sets_.push_back(Unwrap(SelectUniformFacilities(venue, 3, 6, &rng)));
      ASSERT_TRUE(WriteVenueSnapshot(root_ + "/" + spec.name, venue, tree,
                                     sets_.back().existing,
                                     sets_.back().candidates)
                      .ok());
    }
  }

  std::vector<Client> ClientsFor(std::size_t venue_idx, std::uint64_t seed) {
    Rng rng(seed);
    return GenerateClients(venues_[venue_idx], 16, {}, &rng);
  }

  std::string root_;
  std::vector<Venue> venues_;  // stable: reserve not needed, Venue is movable
  std::vector<FacilitySets> sets_;
};

TEST_F(VenueRouterTest, FleetSnapshotRoundTripsFacilitySets) {
  BuildFleet(2);
  LoadedVenueSnapshot snapshot = Unwrap(
      LoadVenueSnapshot(root_ + "/venue0", SnapshotLoadMode::kMmap));
  EXPECT_EQ(snapshot.existing, sets_[0].existing);
  EXPECT_EQ(snapshot.candidates, sets_[0].candidates);
  EXPECT_TRUE(snapshot.tree->is_mapped());
  EXPECT_EQ(snapshot.venue->num_partitions(), venues_[0].num_partitions());

  // The v3 image is the venue's only persisted index.
  std::set<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(root_ + "/venue0")) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{kFleetVenueFileName,
                                          kFleetIndexV3FileName,
                                          kFleetFacilitiesFileName}));
}

TEST_F(VenueRouterTest, ListsVenuesSorted) {
  BuildFleet(3);
  const std::vector<std::string> ids = Unwrap(ListFleetVenues(root_));
  EXPECT_EQ(ids,
            (std::vector<std::string>{"venue0", "venue1", "venue2"}));
  EXPECT_TRUE(ListFleetVenues("/no/such/fleet").status().IsIOError());
}

TEST_F(VenueRouterTest, RoutedQueryMatchesDirectSolve) {
  BuildFleet(2);
  std::unique_ptr<VenueRouter> router = Unwrap(VenueRouter::Open(root_, {}));

  for (std::size_t v = 0; v < 2; ++v) {
    const std::vector<Client> clients = ClientsFor(v, 7 + v);
    ServiceRequest request;
    request.objective = IflsObjective::kMinMax;
    request.clients = clients;
    const ServiceReply reply =
        router->Query("venue" + std::to_string(v), request);
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();

    VipTree direct_tree = Unwrap(VipTree::Build(&venues_[v]));
    IflsContext ctx;
    ctx.oracle = &direct_tree;
    ctx.existing = sets_[v].existing;
    ctx.candidates = sets_[v].candidates;
    ctx.clients = clients;
    const IflsResult direct =
        Unwrap(SolveWithObjective(IflsObjective::kMinMax, ctx));
    EXPECT_EQ(reply.result.found, direct.found);
    // Bit-identical objective; the answer partition is only pinned when no
    // other candidate ties (the overlay iterates sets in its own order).
    EXPECT_EQ(reply.result.objective, direct.objective);
  }
}

TEST_F(VenueRouterTest, UnknownVenueIsNotFound) {
  BuildFleet(1);
  std::unique_ptr<VenueRouter> router = Unwrap(VenueRouter::Open(root_, {}));
  EXPECT_TRUE(router->Service("nope").status().IsNotFound());
  EXPECT_TRUE(router->Query("nope", {}).status.IsNotFound());
  EXPECT_TRUE(router->Evict("nope").IsNotFound());
  EXPECT_FALSE(router->IsResident("nope"));
  EXPECT_TRUE(VenueRouter::Open("/no/such/fleet", {}).status().IsIOError());
}

TEST_F(VenueRouterTest, LazyHydrationAndManualEviction) {
  BuildFleet(2);
  std::unique_ptr<VenueRouter> router = Unwrap(VenueRouter::Open(root_, {}));
  EXPECT_FALSE(router->IsResident("venue0"));
  EXPECT_FALSE(router->IsResident("venue1"));

  ASSERT_TRUE(router->Preload("venue0").ok());
  EXPECT_TRUE(router->IsResident("venue0"));
  EXPECT_FALSE(router->IsResident("venue1"));
  VenueRouterMetrics m = router->Metrics();
  EXPECT_EQ(m.loads, 1u);
  EXPECT_EQ(m.resident_venues, 1u);
  EXPECT_GT(m.resident_bytes, 0u);
  EXPECT_GT(m.mapped_bytes, 0u);  // the v3 index is mapped

  ASSERT_TRUE(router->Evict("venue0").ok());
  EXPECT_FALSE(router->IsResident("venue0"));
  EXPECT_EQ(router->Metrics().evictions, 1u);
  // Evicting a cold venue is a no-op, not an error.
  ASSERT_TRUE(router->Evict("venue0").ok());
  EXPECT_EQ(router->Metrics().evictions, 1u);
}

TEST_F(VenueRouterTest, MaxResidentBudgetEvictsLru) {
  BuildFleet(3);
  VenueRouterOptions options;
  options.max_resident_venues = 2;
  std::unique_ptr<VenueRouter> router =
      Unwrap(VenueRouter::Open(root_, options));

  ASSERT_TRUE(router->Preload("venue0").ok());
  ASSERT_TRUE(router->Preload("venue1").ok());
  EXPECT_TRUE(router->IsResident("venue0"));
  EXPECT_TRUE(router->IsResident("venue1"));

  // Touch venue0 so venue1 is the LRU victim when venue2 loads.
  ASSERT_TRUE(router->Service("venue0").ok());
  ASSERT_TRUE(router->Preload("venue2").ok());
  EXPECT_TRUE(router->IsResident("venue0"));
  EXPECT_FALSE(router->IsResident("venue1"));
  EXPECT_TRUE(router->IsResident("venue2"));
  EXPECT_EQ(router->Metrics().evictions, 1u);
}

TEST_F(VenueRouterTest, MemoryBudgetEvictsAndWarmReloadAnswersIdentically) {
  BuildFleet(3);
  // First pass: learn one venue's resident footprint, then budget for ~1.5
  // venues so every second load must evict.
  std::size_t one_venue_bytes = 0;
  {
    std::unique_ptr<VenueRouter> probe =
        Unwrap(VenueRouter::Open(root_, {}));
    ASSERT_TRUE(probe->Preload("venue0").ok());
    one_venue_bytes = probe->Metrics().resident_bytes;
    ASSERT_GT(one_venue_bytes, 0u);
  }
  VenueRouterOptions options;
  options.memory_budget_bytes = one_venue_bytes + one_venue_bytes / 2;
  std::unique_ptr<VenueRouter> router =
      Unwrap(VenueRouter::Open(root_, options));

  const std::vector<Client> clients = ClientsFor(0, 55);
  ServiceRequest request;
  request.objective = IflsObjective::kMinMax;
  request.clients = clients;
  const ServiceReply first = router->Query("venue0", request);
  ASSERT_TRUE(first.status.ok());

  // Loading the other venues blows the budget and evicts venue0 (LRU).
  ASSERT_TRUE(router->Preload("venue1").ok());
  ASSERT_TRUE(router->Preload("venue2").ok());
  EXPECT_FALSE(router->IsResident("venue0"));
  EXPECT_GE(router->Metrics().evictions, 1u);

  // Warm reload: the re-mapped snapshot must answer bit-identically.
  const ServiceReply again = router->Query("venue0", request);
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(router->IsResident("venue0"));
  EXPECT_EQ(first.result.found, again.result.found);
  EXPECT_EQ(first.result.answer, again.result.answer);
  EXPECT_EQ(first.result.objective, again.result.objective);
  EXPECT_GE(router->Metrics().loads, 4u);  // venue0 twice
}

/// The v3 image is a venue's only index, so a corrupt one must fail the
/// query with a typed status, leave the venue cold (not half-loaded) and
/// the rest of the fleet serving, and hydrate normally once repaired.
TEST_F(VenueRouterTest, CorruptSnapshotFailsTypedAndStaysCold) {
  BuildFleet(2);
  const std::string path = root_ + "/venue0/" + kFleetIndexV3FileName;
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  auto write_file = [&](const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  };
  V3Header header;
  ASSERT_GE(bytes.size(), sizeof(header));
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::string corrupt = bytes;
  corrupt[header.dist_offset + 3] ^= 0xff;  // one payload byte
  write_file(corrupt);

  std::unique_ptr<VenueRouter> router = Unwrap(VenueRouter::Open(root_, {}));
  ServiceRequest request;
  request.objective = IflsObjective::kMinMax;
  request.clients = ClientsFor(0, 21);
  const ServiceReply failed = router->Query("venue0", request);
  EXPECT_TRUE(failed.status.IsInvalidArgument()) << failed.status.ToString();
  EXPECT_FALSE(router->IsResident("venue0"));

  ServiceRequest other;
  other.objective = IflsObjective::kMinMax;
  other.clients = ClientsFor(1, 22);
  EXPECT_TRUE(router->Query("venue1", other).status.ok());

  write_file(bytes);
  const ServiceReply repaired = router->Query("venue0", request);
  EXPECT_TRUE(repaired.status.ok()) << repaired.status.ToString();
  EXPECT_TRUE(router->IsResident("venue0"));
}

TEST_F(VenueRouterTest, HostileFacilitiesCountFailsTypedAndStaysCold) {
  BuildFleet(2);
  // A count no file of this size can hold: sized from the file, the list
  // would ask for ~400 TB before the first id is read.
  {
    std::ofstream out(root_ + "/venue0/" + kFleetFacilitiesFileName,
                      std::ios::trunc);
    out << "IFLS_FACILITIES 1\nexisting 99999999999999 1 2\ncandidates 1 3\n";
  }
  const Status load =
      LoadVenueSnapshot(root_ + "/venue0", SnapshotLoadMode::kMmap).status();
  EXPECT_TRUE(load.IsInvalidArgument()) << load.ToString();
  EXPECT_NE(load.message().find("'existing' count 99999999999999"),
            std::string::npos)
      << load.ToString();

  std::unique_ptr<VenueRouter> router = Unwrap(VenueRouter::Open(root_, {}));
  ServiceRequest request;
  request.objective = IflsObjective::kMinMax;
  request.clients = ClientsFor(0, 23);
  const ServiceReply failed = router->Query("venue0", request);
  EXPECT_TRUE(failed.status.IsInvalidArgument()) << failed.status.ToString();
  EXPECT_FALSE(router->IsResident("venue0"));

  ServiceRequest other;
  other.objective = IflsObjective::kMinMax;
  other.clients = ClientsFor(1, 24);
  EXPECT_TRUE(router->Query("venue1", other).status.ok());
  EXPECT_TRUE(router->IsResident("venue1"));
}

/// An evicted service must be destroyed outside the router mutex: its
/// destructor unregisters metrics under the registry mutex, and a scrape
/// holds that mutex while the ifls_router_* callbacks take the router
/// mutex. TSan's lock-order detector needs only the two orders, not a race,
/// so this single-threaded sequence is enough.
TEST_F(VenueRouterTest, MetricsScrapeDuringEvictionHasNoLockInversion) {
  BuildFleet(2);
  VenueRouterOptions options;
  options.max_resident_venues = 1;
  std::unique_ptr<VenueRouter> router =
      Unwrap(VenueRouter::Open(root_, options));
  ASSERT_TRUE(router->Preload("venue0").ok());
  const std::string text = DumpMetricsText();
  EXPECT_NE(text.find("ifls_router_resident_venues"), std::string::npos);
  ASSERT_TRUE(router->Preload("venue1").ok());
  EXPECT_FALSE(router->IsResident("venue0"));
  EXPECT_TRUE(router->IsResident("venue1"));
  EXPECT_EQ(router->Metrics().evictions, 1u);
}

TEST_F(VenueRouterTest, MutationsRouteToTheRightVenue) {
  BuildFleet(2);
  std::unique_ptr<VenueRouter> router = Unwrap(VenueRouter::Open(root_, {}));
  // Remove venue0's last candidate; venue1 must still see its full set.
  const PartitionId removed = sets_[0].candidates.back();
  std::shared_ptr<IflsService> v0 = Unwrap(router->Service("venue0"));
  std::uint64_t version = 0;
  ASSERT_TRUE(
      v0->Mutate({MutationKind::kRemoveCandidate, removed}, &version).ok());
  EXPECT_GT(version, 0u);

  std::shared_ptr<IflsService> v1 = Unwrap(router->Service("venue1"));
  EXPECT_EQ(
      v0->AcquireState()->effective_candidates.size(),
      sets_[0].candidates.size() - 1);
  EXPECT_EQ(v1->AcquireState()->effective_candidates.size(),
            sets_[1].candidates.size());
}

/// Queries race Evict() and the implied reloads from many threads; every
/// reply must be either OK with the right answer or a clean NotFound-free
/// status. In-flight queries hold the service shared_ptr, so eviction can
/// never pull the snapshot out from under a running solve.
TEST_F(VenueRouterTest, ConcurrentQueriesRaceEvictionAndReload) {
  BuildFleet(3);
  VenueRouterOptions options;
  options.service.num_workers = 2;
  std::unique_ptr<VenueRouter> router =
      Unwrap(VenueRouter::Open(root_, options));

  // Expected answers, solved once up front.
  std::vector<std::vector<Client>> clients;
  std::vector<IflsResult> expected;
  for (std::size_t v = 0; v < 3; ++v) {
    clients.push_back(ClientsFor(v, 300 + v));
    VipTree tree = Unwrap(VipTree::Build(&venues_[v]));
    IflsContext ctx;
    ctx.oracle = &tree;
    ctx.existing = sets_[v].existing;
    ctx.candidates = sets_[v].candidates;
    ctx.clients = clients.back();
    expected.push_back(Unwrap(SolveWithObjective(IflsObjective::kMinMax, ctx)));
  }

  constexpr int kQueryThreads = 4;
  constexpr int kQueriesPerThread = 25;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread evictor([&] {
    std::size_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string id = "venue" + std::to_string(round++ % 3);
      const Status s = router->Evict(id);
      if (!s.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kQueryThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(500 + t));
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const std::size_t v = rng.NextBounded(3);
        ServiceRequest request;
        request.objective = IflsObjective::kMinMax;
        request.clients = clients[v];
        const ServiceReply reply =
            router->Query("venue" + std::to_string(v), request);
        // The objective must match the direct solve bit for bit. The answer
        // partition may legitimately differ when several candidates tie on
        // the objective (the service's overlay iterates the composed sets in
        // a different order than the raw context), so it is not asserted.
        if (!reply.status.ok() ||
            reply.result.found != expected[v].found ||
            reply.result.objective != expected[v].objective) {
          failures.fetch_add(1, std::memory_order_relaxed);
          std::printf("race failure: venue%zu status %s answer %d obj %.17g "
                      "(expected %d / %.17g)\n",
                      v, reply.status.ToString().c_str(),
                      reply.result.answer, reply.result.objective,
                      expected[v].answer, expected[v].objective);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  evictor.join();

  EXPECT_EQ(failures.load(), 0);
  const VenueRouterMetrics m = router->Metrics();
  EXPECT_EQ(m.known_venues, 3u);
  EXPECT_GE(m.loads, 3u);
  std::printf("race: %llu loads, %llu hits, %llu evictions\n",
              static_cast<unsigned long long>(m.loads),
              static_cast<unsigned long long>(m.hits),
              static_cast<unsigned long long>(m.evictions));
}

}  // namespace
}  // namespace ifls
