// Concurrent readers of the memoized PartitionToNode: eight threads query
// every (partition, node) bound of one shared cache-enabled tree while they
// race each other's memo inserts (tagged bound keys) and door-pair inserts
// (DoorToDoor), and every answer must equal the single-threaded value bit
// for bit.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/index/vip_tree.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

constexpr int kThreads = 8;
constexpr int kPasses = 3;

TEST(PartitionToNodeConcurrentTest, SharedCachedTreeMatchesSingleThreaded) {
  VenueGeneratorSpec spec = SmallVenueSpec();
  spec.extra_room_doors_per_level = 6;
  spec.door_jitter_seed = 3;
  const Venue venue = Unwrap(GenerateVenue(spec));
  VipTreeOptions options;
  options.enable_door_distance_cache = true;
  const VipTree tree = Unwrap(VipTree::Build(&venue, options));
  const std::size_t num_nodes = tree.num_nodes();
  const std::size_t num_pairs = venue.num_partitions() * num_nodes;

  // Single-threaded truth on a cold memo, then cold again for the race.
  tree.ClearDistanceCache();
  std::vector<std::uint64_t> truth(num_pairs);
  for (std::size_t i = 0; i < num_pairs; ++i) {
    truth[i] = std::bit_cast<std::uint64_t>(
        tree.PartitionToNode(static_cast<PartitionId>(i / num_nodes),
                             static_cast<NodeId>(i % num_nodes)));
  }
  tree.ClearDistanceCache();

  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> memo_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      OracleCounters counters;
      ScopedOracleCounterSink sink(&counters);
      for (int pass = 0; pass < kPasses; ++pass) {
        // Stagger starting offsets so threads collide on different keys.
        for (std::size_t k = 0; k < num_pairs; ++k) {
          const std::size_t i =
              (k + static_cast<std::size_t>(t) * 37) % num_pairs;
          const auto p = static_cast<PartitionId>(i / num_nodes);
          const auto n = static_cast<NodeId>(i % num_nodes);
          if (std::bit_cast<std::uint64_t>(tree.PartitionToNode(p, n)) !=
              truth[i]) {
            mismatches.fetch_add(1);
          }
          // Door-pair inserts share the cache's slots with bound entries.
          if (k % 7 == 0 && !venue.partition(p).doors.empty() &&
              !tree.node(n).access_doors.empty()) {
            tree.DoorToDoor(venue.partition(p).doors[0],
                            tree.node(n).access_doors[0]);
          }
        }
      }
      memo_hits.fetch_add(counters.cache_hits);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(memo_hits.load(), 0u);
  EXPECT_GT(tree.distance_cache_size(), 0u);
}

}  // namespace
}  // namespace ifls
