// Bit-identity of the batched PartitionToNode (paper iMinD(p, I) with I a
// tree node) against its definition: the min over doors(p) x AD(n) of
// DoorToDoor. The batched form composes the LCA row once per home door and
// memoizes bounds in the door cache; neither may change a single bit. Every
// (partition, node) pair is checked on generated venues and one preset, in
// VIP and IP mode, with the cache off and on, on heap-built and mapped v3
// trees, under every kernel tier this machine supports.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/datasets/presets.h"
#include "src/index/minplus_kernels.h"
#include "src/index/vip_tree.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

/// The definition PartitionToNode must reproduce bit for bit.
double ReferencePartitionToNode(const VipTree& tree, PartitionId p,
                                NodeId n) {
  if (tree.NodeContainsPartition(n, p)) return 0.0;
  double best = kInfDistance;
  for (DoorId d1 : tree.venue().partition(p).doors) {
    for (DoorId ad : tree.node(n).access_doors) {
      const double cand = tree.DoorToDoor(d1, ad);
      if (cand < best) best = cand;
    }
  }
  return best;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct VenueCase {
  std::string name;
  VenueGeneratorSpec spec;
  bool preset = false;  // build the Melbourne Central preset, not `spec`
  int leaf_capacity = 8;
  int internal_fanout = 8;
};

/// Prints the case by name, so ctest's test names stay stable.
void PrintTo(const VenueCase& c, std::ostream* os) { *os << c.name; }

std::vector<VenueCase> Cases() {
  std::vector<VenueCase> cases;
  cases.push_back({"Small", SmallVenueSpec()});
  VenueCase deep{"SmallDeepTree", SmallVenueSpec()};
  deep.leaf_capacity = 3;
  deep.internal_fanout = 2;
  cases.push_back(deep);
  VenueCase multi{"MultiDoorRooms", SmallVenueSpec()};
  multi.spec.levels = 3;
  multi.spec.extra_room_doors_per_level = 10;
  multi.spec.door_jitter_seed = 7;
  multi.spec.stairwells = 2;
  multi.leaf_capacity = 4;
  multi.internal_fanout = 3;
  cases.push_back(multi);
  VenueCase mc{"MelbourneCentral", {}};
  mc.preset = true;
  cases.push_back(mc);
  return cases;
}

class PartitionToNodeTest : public ::testing::TestWithParam<VenueCase> {
 protected:
  void SetUp() override {
    const VenueCase& c = GetParam();
    venue_ = Unwrap(c.preset
                        ? BuildPresetVenue(VenuePreset::kMelbourneCentral)
                        : GenerateVenue(c.spec));
  }

  VipTreeOptions Options(bool vip, bool cache) const {
    VipTreeOptions o;
    o.leaf_capacity = GetParam().leaf_capacity;
    o.internal_fanout = GetParam().internal_fanout;
    o.build_leaf_to_ancestor = vip;
    o.enable_door_distance_cache = cache;
    return o;
  }

  /// Checks every (p, n) on `tree` under the active kernel tier: the
  /// batched bound equals the reference, and (cache on) the memoized second
  /// call equals the first and is served by the memo.
  void CheckAllPairs(const VipTree& tree, const std::string& what) {
    tree.ClearDistanceCache();
    std::vector<double> first;
    first.reserve(venue_.num_partitions() * tree.num_nodes());
    for (std::size_t p = 0; p < venue_.num_partitions(); ++p) {
      for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
        first.push_back(tree.PartitionToNode(static_cast<PartitionId>(p),
                                             static_cast<NodeId>(n)));
      }
    }
    std::size_t i = 0;
    int mismatches = 0;
    for (std::size_t p = 0; p < venue_.num_partitions(); ++p) {
      for (std::size_t n = 0; n < tree.num_nodes(); ++n, ++i) {
        const double ref = ReferencePartitionToNode(
            tree, static_cast<PartitionId>(p), static_cast<NodeId>(n));
        if (Bits(first[i]) != Bits(ref) && ++mismatches <= 5) {
          ADD_FAILURE() << what << ": PartitionToNode(" << p << ", " << n
                        << ") = " << first[i] << ", reference " << ref;
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << what;

    OracleCounters counters;
    {
      ScopedOracleCounterSink sink(&counters);
      i = 0;
      for (std::size_t p = 0; p < venue_.num_partitions(); ++p) {
        for (std::size_t n = 0; n < tree.num_nodes(); ++n, ++i) {
          const double again = tree.PartitionToNode(
              static_cast<PartitionId>(p), static_cast<NodeId>(n));
          ASSERT_EQ(Bits(again), Bits(first[i]))
              << what << ": second call of (" << p << ", " << n << ")";
        }
      }
    }
    if (tree.options().enable_door_distance_cache) {
      EXPECT_GT(counters.cache_hits, 0u) << what;
    } else {
      EXPECT_EQ(counters.cache_hits + counters.cache_misses, 0u) << what;
    }
  }

  Venue venue_;
};

TEST_P(PartitionToNodeTest, BitIdenticalToDoorToDoorMinimum) {
  std::vector<kernels::KernelTier> tiers;
  for (int t = 0; t < kernels::kNumKernelTiers; ++t) {
    const auto tier = static_cast<kernels::KernelTier>(t);
    if (kernels::KernelTierSupported(tier)) tiers.push_back(tier);
  }
  for (const bool vip : {true, false}) {
    for (const bool cache : {false, true}) {
      VipTree built = Unwrap(VipTree::Build(&venue_, Options(vip, cache)));
      const std::string path = ::testing::TempDir() + "/p2n_" +
                               GetParam().name + (vip ? "_vip" : "_ip") +
                               (cache ? "_cache" : "") + ".v3.ifls";
      ASSERT_TRUE(built.SaveV3ToFile(path).ok());
      VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue_, path));
      ASSERT_TRUE(mapped.is_mapped());
      ASSERT_EQ(mapped.options().enable_door_distance_cache, cache);
      for (const kernels::KernelTier tier : tiers) {
        ASSERT_TRUE(kernels::PinKernelTier(tier).ok());
        const std::string what = std::string(vip ? "VIP" : "IP") +
                                 (cache ? " cache" : " no-cache") + " " +
                                 kernels::KernelTierName(tier);
        CheckAllPairs(built, what + " heap");
        CheckAllPairs(mapped, what + " mapped");
      }
      kernels::ResetKernelTierAuto();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Venues, PartitionToNodeTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<VenueCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ifls
