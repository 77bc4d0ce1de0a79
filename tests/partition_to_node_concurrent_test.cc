// Concurrent readers of the memoized partition-level distances
// (PartitionToNode, PartitionToPartition, DoorToPartition): eight threads
// query every argument pair of one shared cache-enabled tree while they race
// each other's memo inserts (per-kind keys) and door-pair inserts
// (DoorToDoor), and every answer must equal the single-threaded value bit
// for bit.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/index/vip_tree.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

constexpr int kThreads = 8;
constexpr int kPasses = 3;

class PartitionToNodeConcurrentTest : public ::testing::Test {
 protected:
  using Distance = std::function<double(std::int32_t, std::int32_t)>;
  /// One door pair whose DoorToDoor insert shares the cache with the
  /// memo entry of (from, to); kInvalidDoor entries mean none.
  using DoorPair = std::function<std::pair<DoorId, DoorId>(std::int32_t,
                                                           std::int32_t)>;

  void SetUp() override {
    VenueGeneratorSpec spec = SmallVenueSpec();
    spec.extra_room_doors_per_level = 6;
    spec.door_jitter_seed = 3;
    venue_ = Unwrap(GenerateVenue(spec));
    VipTreeOptions options;
    options.enable_door_distance_cache = true;
    tree_ = std::make_unique<VipTree>(Unwrap(VipTree::Build(&venue_, options)));
  }

  /// First door of partition `p`, or kInvalidDoor.
  DoorId FirstDoor(PartitionId p) const {
    const auto doors = venue_.partition(p).doors;
    return doors.empty() ? kInvalidDoor : doors[0];
  }

  /// Races kThreads readers of `distance` over every (from, to) pair with
  /// from < num_from and to < num_to.
  void CheckConcurrentReaders(std::size_t num_from, std::size_t num_to,
                              const Distance& distance,
                              const DoorPair& door_pair) {
    const VipTree& tree = *tree_;
    const std::size_t num_pairs = num_from * num_to;

    // Single-threaded truth on a cold memo, then cold again for the race.
    tree.ClearDistanceCache();
    std::vector<std::uint64_t> truth(num_pairs);
    for (std::size_t i = 0; i < num_pairs; ++i) {
      truth[i] = std::bit_cast<std::uint64_t>(
          distance(static_cast<std::int32_t>(i / num_to),
                   static_cast<std::int32_t>(i % num_to)));
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
            const auto from = static_cast<std::int32_t>(i / num_to);
            const auto to = static_cast<std::int32_t>(i % num_to);
            if (std::bit_cast<std::uint64_t>(distance(from, to)) !=
                truth[i]) {
              mismatches.fetch_add(1);
            }
            // Door-pair inserts share the cache's slots with memo entries.
            if (k % 7 == 0) {
              const auto [a, b] = door_pair(from, to);
              if (a != kInvalidDoor && b != kInvalidDoor) tree.DoorToDoor(a, b);
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

  Venue venue_;
  std::unique_ptr<VipTree> tree_;
};

TEST_F(PartitionToNodeConcurrentTest, SharedCachedTreeMatchesSingleThreaded) {
  CheckConcurrentReaders(
      venue_.num_partitions(), tree_->num_nodes(),
      [&](std::int32_t p, std::int32_t n) {
        return tree_->PartitionToNode(p, n);
      },
      [&](std::int32_t p, std::int32_t n) {
        const auto ads = tree_->node(n).access_doors;
        return std::pair(FirstDoor(p), ads.empty() ? kInvalidDoor : ads[0]);
      });
}

TEST_F(PartitionToNodeConcurrentTest, PartitionToPartitionMatchesSingleThreaded) {
  CheckConcurrentReaders(
      venue_.num_partitions(), venue_.num_partitions(),
      [&](std::int32_t p, std::int32_t q) {
        return tree_->PartitionToPartition(p, q);
      },
      [&](std::int32_t p, std::int32_t q) {
        return std::pair(FirstDoor(p), FirstDoor(q));
      });
}

TEST_F(PartitionToNodeConcurrentTest, DoorToPartitionMatchesSingleThreaded) {
  CheckConcurrentReaders(
      venue_.num_doors(), venue_.num_partitions(),
      [&](std::int32_t d, std::int32_t f) {
        return tree_->DoorToPartition(d, f);
      },
      [&](std::int32_t d, std::int32_t f) {
        return std::pair(static_cast<DoorId>(d), FirstDoor(f));
      });
}

}  // namespace
}  // namespace ifls
