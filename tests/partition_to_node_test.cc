// Bit-identity of the batched partition-level distances against their
// definitions as per-pair DoorToDoor minima: PartitionToNode (paper
// iMinD(p, I) with I a tree node, over doors(p) x AD(n)),
// PartitionToPartition (iMinD(p, q), over doors(p) x doors(q)) and
// DoorToPartition (over {d} x doors(f)). One composer computes all three,
// composing the LCA row once per home door, and the door cache memoizes
// each under its own kind of key; neither may change a single bit. Every
// argument pair is checked on generated venues and one preset, in VIP and
// IP mode, with the cache off and on, on heap-built and mapped v3 trees,
// under every kernel tier this machine supports.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <ostream>
#include <set>
#include <span>
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

/// Minimum of DoorToDoor over `from` x `to`: the definition every batched
/// distance must reproduce bit for bit.
double PerPairMinimum(const VipTree& tree, std::span<const DoorId> from,
                      std::span<const DoorId> to) {
  double best = kInfDistance;
  for (DoorId d1 : from) {
    for (DoorId d2 : to) {
      const double cand = tree.DoorToDoor(d1, d2);
      if (cand < best) best = cand;
    }
  }
  return best;
}

/// One batched distance over (from, to) id pairs and its reference.
struct Family {
  std::string name;
  std::function<std::size_t(const VipTree&)> num_from;
  std::function<std::size_t(const VipTree&)> num_to;
  std::function<double(const VipTree&, std::int32_t, std::int32_t)> batched;
  std::function<double(const VipTree&, std::int32_t, std::int32_t)> reference;
  /// Served from the v3 image's table on mapped trees, so never memoized
  /// there.
  bool mapped_table = false;
};

Family PartitionToNodeFamily() {
  return {"PartitionToNode",
          [](const VipTree& t) { return t.venue().num_partitions(); },
          [](const VipTree& t) { return t.num_nodes(); },
          [](const VipTree& t, std::int32_t p, std::int32_t n) {
            return t.PartitionToNode(p, n);
          },
          [](const VipTree& t, std::int32_t p, std::int32_t n) {
            if (t.NodeContainsPartition(n, p)) return 0.0;
            return PerPairMinimum(t, t.venue().partition(p).doors,
                                  t.node(n).access_doors);
          },
          /*mapped_table=*/true};
}

Family PartitionToPartitionFamily() {
  return {"PartitionToPartition",
          [](const VipTree& t) { return t.venue().num_partitions(); },
          [](const VipTree& t) { return t.venue().num_partitions(); },
          [](const VipTree& t, std::int32_t p, std::int32_t q) {
            return t.PartitionToPartition(p, q);
          },
          [](const VipTree& t, std::int32_t p, std::int32_t q) {
            if (p == q) return 0.0;
            return PerPairMinimum(t, t.venue().partition(p).doors,
                                  t.venue().partition(q).doors);
          }};
}

Family DoorToPartitionFamily() {
  return {"DoorToPartition",
          [](const VipTree& t) { return t.venue().num_doors(); },
          [](const VipTree& t) { return t.venue().num_partitions(); },
          [](const VipTree& t, std::int32_t d, std::int32_t f) {
            return t.DoorToPartition(d, f);
          },
          [](const VipTree& t, std::int32_t d, std::int32_t f) {
            return PerPairMinimum(t, std::span<const DoorId>(&d, 1),
                                  t.venue().partition(f).doors);
          }};
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

  /// Checks every (from, to) pair of `family` on `tree` under the active
  /// kernel tier: the batched distance equals the reference, and (cache on)
  /// the memoized second call equals the first and is served by the memo.
  /// A family a mapped tree reads from its table must not touch the memo.
  void CheckAllPairs(const Family& family, const VipTree& tree,
                     const std::string& what) {
    const std::size_t num_from = family.num_from(tree);
    const std::size_t num_to = family.num_to(tree);
    tree.ClearDistanceCache();
    std::vector<double> first;
    first.reserve(num_from * num_to);
    for (std::size_t a = 0; a < num_from; ++a) {
      for (std::size_t b = 0; b < num_to; ++b) {
        first.push_back(family.batched(tree, static_cast<std::int32_t>(a),
                                       static_cast<std::int32_t>(b)));
      }
    }
    std::size_t i = 0;
    int mismatches = 0;
    for (std::size_t a = 0; a < num_from; ++a) {
      for (std::size_t b = 0; b < num_to; ++b, ++i) {
        const double ref = family.reference(
            tree, static_cast<std::int32_t>(a), static_cast<std::int32_t>(b));
        if (Bits(first[i]) != Bits(ref) && ++mismatches <= 5) {
          ADD_FAILURE() << what << ": " << family.name << "(" << a << ", "
                        << b << ") = " << first[i] << ", reference " << ref;
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << what;

    OracleCounters counters;
    {
      ScopedOracleCounterSink sink(&counters);
      i = 0;
      for (std::size_t a = 0; a < num_from; ++a) {
        for (std::size_t b = 0; b < num_to; ++b, ++i) {
          const double again =
              family.batched(tree, static_cast<std::int32_t>(a),
                             static_cast<std::int32_t>(b));
          ASSERT_EQ(Bits(again), Bits(first[i]))
              << what << ": second call of (" << a << ", " << b << ")";
        }
      }
    }
    if (family.mapped_table && tree.is_mapped()) {
      EXPECT_EQ(counters.cache_hits + counters.cache_misses, 0u) << what;
    } else if (tree.options().enable_door_distance_cache) {
      EXPECT_GT(counters.cache_hits, 0u) << what;
    } else {
      EXPECT_EQ(counters.cache_hits + counters.cache_misses, 0u) << what;
    }
  }

  /// Runs CheckAllPairs for `family` in VIP and IP mode, cache off and on,
  /// on the heap-built tree and its mapped v3 snapshot, under every kernel
  /// tier this machine supports.
  void CheckAllConfigurations(const Family& family) {
    std::vector<kernels::KernelTier> tiers;
    for (int t = 0; t < kernels::kNumKernelTiers; ++t) {
      const auto tier = static_cast<kernels::KernelTier>(t);
      if (kernels::KernelTierSupported(tier)) tiers.push_back(tier);
    }
    for (const bool vip : {true, false}) {
      for (const bool cache : {false, true}) {
        VipTree built = Unwrap(VipTree::Build(&venue_, Options(vip, cache)));
        const std::string path = ::testing::TempDir() + "/" + family.name +
                                 "_" + GetParam().name +
                                 (vip ? "_vip" : "_ip") +
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
          CheckAllPairs(family, built, what + " heap");
          CheckAllPairs(family, mapped, what + " mapped");
        }
        kernels::ResetKernelTierAuto();
      }
    }
  }

  Venue venue_;
};

TEST_P(PartitionToNodeTest, BitIdenticalToDoorToDoorMinimum) {
  CheckAllConfigurations(PartitionToNodeFamily());
}

TEST_P(PartitionToNodeTest, PartitionToPartitionBitIdentical) {
  CheckAllConfigurations(PartitionToPartitionFamily());
}

TEST_P(PartitionToNodeTest, DoorToPartitionBitIdentical) {
  CheckAllConfigurations(DoorToPartitionFamily());
}

// The three memoized distances and DoorToDoor share one cache. Filled by
// all of them, each must still return its uncached value: a key of one kind
// that aliased another's would serve the wrong distance.
TEST_P(PartitionToNodeTest, MemoKindsShareTheCacheWithoutAliasing) {
  const VipTree cold = Unwrap(VipTree::Build(&venue_, Options(true, false)));
  const VipTree warm = Unwrap(VipTree::Build(&venue_, Options(true, true)));
  const Family door_to_door{
      "DoorToDoor", [](const VipTree& t) { return t.venue().num_doors(); },
      [](const VipTree& t) { return t.venue().num_doors(); },
      [](const VipTree& t, std::int32_t a, std::int32_t b) {
        return t.DoorToDoor(a, b);
      },
      nullptr};
  const Family families[] = {PartitionToNodeFamily(),
                             PartitionToPartitionFamily(),
                             DoorToPartitionFamily(), door_to_door};
  for (const bool fill : {true, false}) {
    for (const Family& f : families) {
      int mismatches = 0;
      for (std::size_t a = 0; a < f.num_from(warm); ++a) {
        for (std::size_t b = 0; b < f.num_to(warm); ++b) {
          const auto from = static_cast<std::int32_t>(a);
          const auto to = static_cast<std::int32_t>(b);
          const double got = f.batched(warm, from, to);
          if (!fill && Bits(got) != Bits(f.batched(cold, from, to)) &&
              ++mismatches <= 5) {
            ADD_FAILURE() << f.name << "(" << a << ", " << b << ") from a "
                          << "shared cache = " << got;
          }
        }
      }
      EXPECT_EQ(mismatches, 0) << f.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Venues, PartitionToNodeTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<VenueCase>& info) {
      return info.param.name;
    });

// The four memo kinds share one dense 32-bit key space: every (kind, from,
// to) of a venue maps to its own rank in [1, K], so none collides with
// another and none is the cache's empty sentinel 0.
TEST(DistanceMemoKeySpaceTest, RanksAreDistinctAndFillOneToK) {
  struct Shape {
    std::int32_t doors, partitions, nodes;
  };
  // Unequal counts catch a width or offset taken from the wrong dimension;
  // the last shape has door pairs only.
  for (const Shape& s : {Shape{1, 1, 1}, Shape{3, 5, 7}, Shape{6, 4, 2},
                         Shape{9, 2, 5}, Shape{5, 0, 0}}) {
    const DistanceMemoKeySpace keys(s.doors, s.partitions, s.nodes);
    ASSERT_TRUE(keys.fits());
    const struct {
      DistanceMemoKind kind;
      std::int32_t from, to;
    } kinds[] = {
        {DistanceMemoKind::kDoorPair, s.doors, s.doors},
        {DistanceMemoKind::kDoorToPartition, s.doors, s.partitions},
        {DistanceMemoKind::kPartitionToNode, s.partitions, s.nodes},
        {DistanceMemoKind::kPartitionToPartition, s.partitions, s.partitions},
    };
    std::set<std::uint32_t> seen;
    std::uint64_t triples = 0;
    for (const auto& k : kinds) {
      for (std::int32_t from = 0; from < k.from; ++from) {
        for (std::int32_t to = 0; to < k.to; ++to, ++triples) {
          const std::uint32_t key = keys.Key(k.kind, from, to);
          EXPECT_GE(key, 1u);
          EXPECT_LE(key, keys.size());
          seen.insert(key);
        }
      }
    }
    EXPECT_EQ(triples, keys.size());
    EXPECT_EQ(seen.size(), keys.size());
  }
}

// A venue too large for 32-bit keys is recognised from its counts alone,
// before any tree is built; the boundary sits at K = 2^32 - 1.
TEST(DistanceMemoKeySpaceTest, OverflowIsReportedFromTheCounts) {
  EXPECT_FALSE(DistanceMemoKeySpace(40000, 40000, 1).fits());
  EXPECT_TRUE(DistanceMemoKeySpace(1438, 1424, 243).fits());  // MZB-sized
  EXPECT_TRUE(DistanceMemoKeySpace(65535, 0, 0).fits());
  EXPECT_FALSE(DistanceMemoKeySpace(65536, 0, 0).fits());  // K = 2^32
}

// The memo is sized from the venue: 64 entries per partition and door,
// and at least 2^16, so MZB gets room for its working set and a
// fleet-sized venue keeps the floor.
TEST(DistanceMemoKeySpaceTest, CacheIsSizedFromTheVenue) {
  VipTreeOptions options;
  options.enable_door_distance_cache = true;

  const Venue mzb =
      Unwrap(BuildPresetVenue(VenuePreset::kMenziesBuilding));
  const VipTree big = Unwrap(VipTree::Build(&mzb, options));
  EXPECT_GE(big.door_cache_stats().capacity,
            64 * (mzb.num_partitions() + mzb.num_doors()));

  VenueGeneratorSpec spec;
  spec.levels = 4;
  spec.total_rooms = 240;
  const Venue small = Unwrap(GenerateVenue(spec));
  ASSERT_GE(small.num_partitions(), 250u);
  ASSERT_LT(64 * (small.num_partitions() + small.num_doors()), 1u << 16);
  const VipTree tree = Unwrap(VipTree::Build(&small, options));
  EXPECT_GE(tree.door_cache_stats().capacity, 1u << 16);
  EXPECT_LT(tree.door_cache_stats().capacity,
            (1u << 16) + ConcurrentDoorCache::kWays);

  options.enable_door_distance_cache = false;
  const VipTree off = Unwrap(VipTree::Build(&small, options));
  EXPECT_EQ(off.door_cache_stats().capacity, 0u);
}

}  // namespace
}  // namespace ifls
