// Concurrent-reader guarantees of the persisted VIP-tree: after a v3
// snapshot round trip, many threads may map their own copies of one file
// and query one shared mapped instance simultaneously, and every
// distance/solver answer must equal the single-threaded truth. This
// exercises the lock-free door-distance cache, the atomic counter
// aggregate, and the call_once memoization under real contention.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/batch_engine.h"
#include "src/core/efficient.h"
#include "src/index/graph_oracle.h"
#include "src/index/vip_tree.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

constexpr int kThreads = 8;

/// A v3 image path unique to the running test, so test processes that
/// ctest runs in parallel never rewrite a file another one has mapped.
std::string SnapshotPath(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + info->test_suite_name() + "_" +
         info->name() + "_" + stem + ".v3.ifls";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct Fixture {
  Venue venue;
  std::string path;                // the v3 image every reader maps
  std::unique_ptr<VipTree> tree;   // mapped once, shared by reader threads
  std::vector<std::pair<Client, Client>> pairs;
  std::vector<double> truth;       // single-threaded PointToPoint answers
};

Fixture BuildFixture() {
  Fixture f;
  f.venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&f.venue));
  f.path = SnapshotPath("shared");
  EXPECT_TRUE(built.SaveV3ToFile(f.path).ok());
  f.tree = std::make_unique<VipTree>(
      Unwrap(VipTree::LoadV3FromFile(&f.venue, f.path)));

  Rng rng(2026);
  for (int i = 0; i < 120; ++i) {
    f.pairs.emplace_back(RandomClient(f.venue, &rng, 0),
                         RandomClient(f.venue, &rng, 1));
  }
  for (const auto& [a, b] : f.pairs) {
    f.truth.push_back(f.tree->PointToPoint(a.position, a.partition,
                                           b.position, b.partition));
  }
  return f;
}

TEST(VipTreeIoConcurrentTest, ParallelLoadersMatchSingleThreadedAnswers) {
  Fixture f = BuildFixture();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, &mismatches] {
      // Each thread maps the shared file on its own, so several mappings
      // of one file are open at once...
      Result<VipTree> loaded = VipTree::LoadV3FromFile(&f.venue, f.path);
      if (!loaded.ok()) {
        mismatches.fetch_add(1000);
        return;
      }
      const VipTree tree = std::move(loaded).value();
      // ...and must reproduce the single-threaded distances exactly.
      for (std::size_t i = 0; i < f.pairs.size(); ++i) {
        const auto& [a, b] = f.pairs[i];
        const double d = tree.PointToPoint(a.position, a.partition,
                                           b.position, b.partition);
        if (d != f.truth[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(VipTreeIoConcurrentTest, SharedLoadedTreeServesConcurrentReaders) {
  Fixture f = BuildFixture();
  // Start from a cold cache so the concurrent readers race on inserts.
  f.tree->ClearDistanceCache();
  std::atomic<int> mismatches{0};
  std::vector<OracleCounters> counters(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, &mismatches, &counters, t] {
      ScopedOracleCounterSink sink(&counters[static_cast<std::size_t>(t)]);
      // Stagger starting offsets so threads collide on different keys.
      for (std::size_t k = 0; k < f.pairs.size(); ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(t) * 17) %
                              f.pairs.size();
        const auto& [a, b] = f.pairs[i];
        const double d = f.tree->PointToPoint(a.position, a.partition,
                                              b.position, b.partition);
        if (d != f.truth[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Each thread's own sink picked up its lookups.
  for (const OracleCounters& c : counters) EXPECT_GT(c.matrix_lookups, 0u);
}

TEST(VipTreeIoConcurrentTest, ConcurrentSolversOnLoadedTreeAgree) {
  Fixture f = BuildFixture();
  Rng rng(7);
  IflsContext ctx;
  ctx.oracle = f.tree.get();
  FacilitySets sets = Unwrap(SelectUniformFacilities(f.venue, 3, 6, &rng));
  ctx.existing = std::move(sets.existing);
  ctx.candidates = std::move(sets.candidates);
  for (int i = 0; i < 30; ++i) {
    ctx.clients.push_back(RandomClient(f.venue, &rng, i));
  }
  const IflsResult truth = Unwrap(SolveEfficient(ctx));

  std::vector<BatchQuery> batch(
      static_cast<std::size_t>(2 * kThreads),
      BatchQuery{IflsObjective::kMinMax, ctx});
  BatchEngineOptions opts;
  opts.num_threads = kThreads;
  BatchQueryEngine engine(opts);
  const std::vector<BatchQueryOutcome> outcomes = engine.Run(batch);
  for (const BatchQueryOutcome& o : outcomes) {
    ASSERT_TRUE(o.status.ok());
    EXPECT_EQ(o.result.found, truth.found);
    EXPECT_EQ(o.result.answer, truth.answer);
    EXPECT_EQ(o.result.objective, truth.objective);
    EXPECT_EQ(o.result.stats.distance_computations,
              truth.stats.distance_computations);
  }
}

TEST(VipTreeIoConcurrentTest, ParallelBuildIsByteIdenticalToSequential) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTreeOptions sequential_opts;
  sequential_opts.build_threads = 1;
  VipTreeOptions parallel_opts;
  parallel_opts.build_threads = 4;
  const VipTree sequential =
      Unwrap(VipTree::Build(&venue, sequential_opts));
  const VipTree parallel = Unwrap(VipTree::Build(&venue, parallel_opts));
  // Each door's matrix row comes from its own Dijkstra run, so thread
  // scheduling cannot change a single byte of the v3 image.
  const std::string a = SnapshotPath("sequential");
  const std::string b = SnapshotPath("parallel");
  ASSERT_TRUE(sequential.SaveV3ToFile(a).ok());
  ASSERT_TRUE(parallel.SaveV3ToFile(b).ok());
  const std::string bytes_a = ReadFileBytes(a);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, ReadFileBytes(b));
}

TEST(VipTreeIoConcurrentTest, GraphOracleMemoizesOnceUnderContention) {
  Fixture f = BuildFixture();
  GraphDistanceOracle oracle(&f.venue);
  const DoorId source = 0;
  const std::size_t num_doors = f.venue.num_doors();
  std::vector<std::vector<double>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&oracle, &per_thread, num_doors, t] {
      for (DoorId d = 0; d < static_cast<DoorId>(num_doors); ++d) {
        per_thread[static_cast<std::size_t>(t)].push_back(
            oracle.DoorToDoor(source, d));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(per_thread[static_cast<std::size_t>(t)], per_thread[0]);
  }
  // call_once collapsed the racing threads to one Dijkstra per source.
  EXPECT_EQ(oracle.num_sssp_runs(), 1u);
}

}  // namespace
}  // namespace ifls
