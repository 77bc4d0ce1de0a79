// Bit digests of every VIP-tree distance, of the graph oracle's distances
// and of reconstructed paths, pinned as constants. A refactor of the
// distance layer (the door-set composer, the memo, the kernel ladder) must
// leave every digest unchanged: each is recomputed with the door memo off
// and on, on the heap-built tree and on its mapped v3 snapshot, under every
// kernel tier this machine supports, and must equal the one pinned value.
//
// On a mismatch the test prints every row of its venue in source form.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/datasets/presets.h"
#include "src/index/graph_oracle.h"
#include "src/index/minplus_kernels.h"
#include "src/index/path.h"
#include "src/index/vip_tree.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

/// 64-bit FNV-style fold over whole words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void Add(std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; }
  void Add(double x) { Add(std::bit_cast<std::uint64_t>(x)); }
};

struct DistancePin {
  const char* venue;
  const char* mode;
  const char* function;
  std::uint64_t digest;
};

std::ostream& operator<<(std::ostream& os, const DistancePin& p) {
  return os << "{\"" << p.venue << "\", \"" << p.mode << "\", \""
            << p.function << "\", 0x" << std::hex << p.digest << std::dec
            << "ull},";
}

const DistancePin kDistancePins[] = {
    {"SmallDeepTree", "vip", "DoorToDoor", 0x3dd145d037df65ffull},
    {"SmallDeepTree", "vip", "DoorToPartition", 0xf7aeb072d72ff5e3ull},
    {"SmallDeepTree", "vip", "PartitionToPartition", 0x1bda56d314b677bdull},
    {"SmallDeepTree", "vip", "PartitionToNode", 0x6da976088b38b56dull},
    {"SmallDeepTree", "vip", "PointToNode", 0xb382302ca798c569ull},
    {"SmallDeepTree", "vip", "PointToPartition", 0xb9dff6450af46d53ull},
    {"SmallDeepTree", "vip", "PointToPoint", 0x393d9c7576a6be1full},
    {"SmallDeepTree", "vip", "PathPointToPoint", 0x8b222f387375eb50ull},
    {"SmallDeepTree", "vip", "PathPointToPartition", 0x7166b5134c1ee5ddull},
    {"SmallDeepTree", "ip", "DoorToDoor", 0xe70c381c6264fc89ull},
    {"SmallDeepTree", "ip", "DoorToPartition", 0xe1877bd80d25d7adull},
    {"SmallDeepTree", "ip", "PartitionToPartition", 0x158c1767122ea1c3ull},
    {"SmallDeepTree", "ip", "PartitionToNode", 0xfe435aceb9bff9e1ull},
    {"SmallDeepTree", "ip", "PointToNode", 0x5b0e8aa7adafa3ffull},
    {"SmallDeepTree", "ip", "PointToPartition", 0x6d582833f07d9bdull},
    {"SmallDeepTree", "ip", "PointToPoint", 0x6fc5da2191f2b311ull},
    {"SmallDeepTree", "ip", "PathPointToPoint", 0x44635752c03ebfcdull},
    {"SmallDeepTree", "ip", "PathPointToPartition", 0xc2c6266d46127008ull},
    {"SmallDeepTree", "graph", "PointToPartition", 0x286570557b72fe7bull},
    {"SmallDeepTree", "graph", "PointToPoint", 0x8628d22e9c4df2cfull},
    {"SmallDeepTree", "graph", "PartitionToPartition", 0x809e4aac1b460135ull},
    {"MultiDoorRooms", "vip", "DoorToDoor", 0x59219026aeb699a3ull},
    {"MultiDoorRooms", "vip", "DoorToPartition", 0xb211d030de5c251bull},
    {"MultiDoorRooms", "vip", "PartitionToPartition", 0x34b106817af96865ull},
    {"MultiDoorRooms", "vip", "PartitionToNode", 0x90a013d3bc7bd995ull},
    {"MultiDoorRooms", "vip", "PointToNode", 0xe3409560b6985eb1ull},
    {"MultiDoorRooms", "vip", "PointToPartition", 0x57582dd805ffe695ull},
    {"MultiDoorRooms", "vip", "PointToPoint", 0x9f27e9632033d709ull},
    {"MultiDoorRooms", "vip", "PathPointToPoint", 0x1367c4989a837915ull},
    {"MultiDoorRooms", "vip", "PathPointToPartition", 0xb052baa82615a6ceull},
    {"MultiDoorRooms", "ip", "DoorToDoor", 0xa982e82598294305ull},
    {"MultiDoorRooms", "ip", "DoorToPartition", 0xabbe195d7a501771ull},
    {"MultiDoorRooms", "ip", "PartitionToPartition", 0x8045420dae9bfcd1ull},
    {"MultiDoorRooms", "ip", "PartitionToNode", 0xc23650517a3335e5ull},
    {"MultiDoorRooms", "ip", "PointToNode", 0x8d4b93c0109c53bdull},
    {"MultiDoorRooms", "ip", "PointToPartition", 0x11061042b7d62b35ull},
    {"MultiDoorRooms", "ip", "PointToPoint", 0xa3e03861799542cfull},
    {"MultiDoorRooms", "ip", "PathPointToPoint", 0x231567c7a210f6e6ull},
    {"MultiDoorRooms", "ip", "PathPointToPartition", 0x43e6fdcc4d4b9370ull},
    {"MultiDoorRooms", "graph", "PointToPartition", 0x5db5ea7d2863a5edull},
    {"MultiDoorRooms", "graph", "PointToPoint", 0xc338a1c93c4df9a5ull},
    {"MultiDoorRooms", "graph", "PartitionToPartition", 0xaa0a603287a98d71ull},
    {"MelbourneCentral", "vip", "DoorToDoor", 0xa475f3e66f3571bdull},
    {"MelbourneCentral", "vip", "DoorToPartition", 0xb8eab32dd398d3cdull},
    {"MelbourneCentral", "vip", "PartitionToPartition", 0x63caadb4e3e1acedull},
    {"MelbourneCentral", "vip", "PartitionToNode", 0xf7aec6d1ee76a273ull},
    {"MelbourneCentral", "vip", "PointToNode", 0x6c6df360a185baf5ull},
    {"MelbourneCentral", "vip", "PointToPartition", 0x7bc155b18b1508d1ull},
    {"MelbourneCentral", "vip", "PointToPoint", 0x9e0e8180223b591dull},
    {"MelbourneCentral", "vip", "PathPointToPoint", 0x7a77185d9f0cc2dfull},
    {"MelbourneCentral", "vip", "PathPointToPartition", 0x3845170959122395ull},
    {"MelbourneCentral", "ip", "DoorToDoor", 0xa475f3e66f3571bdull},
    {"MelbourneCentral", "ip", "DoorToPartition", 0xb8eab32dd398d3cdull},
    {"MelbourneCentral", "ip", "PartitionToPartition", 0x63caadb4e3e1acedull},
    {"MelbourneCentral", "ip", "PartitionToNode", 0xf7aec6d1ee76a273ull},
    {"MelbourneCentral", "ip", "PointToNode", 0x6c6df360a185baf5ull},
    {"MelbourneCentral", "ip", "PointToPartition", 0x7bc155b18b1508d1ull},
    {"MelbourneCentral", "ip", "PointToPoint", 0x9e0e8180223b591dull},
    {"MelbourneCentral", "ip", "PathPointToPoint", 0x7a77185d9f0cc2dfull},
    {"MelbourneCentral", "ip", "PathPointToPartition", 0x3845170959122395ull},
    {"MelbourneCentral", "graph", "PointToPartition", 0x269ebff11b9acb9full},
    {"MelbourneCentral", "graph", "PointToPoint", 0xcbb181bd884e0177ull},
    {"MelbourneCentral", "graph", "PartitionToPartition", 0xa5b156858a56dc7bull},
};

struct VenueCase {
  std::string name;
  VenueGeneratorSpec spec;
  bool preset = false;  // build the Melbourne Central preset, not `spec`
  int leaf_capacity = 8;
  int internal_fanout = 8;
};

void PrintTo(const VenueCase& c, std::ostream* os) { *os << c.name; }

std::vector<VenueCase> Cases() {
  std::vector<VenueCase> cases;
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

/// The seeded arguments every digest is taken over.
struct Samples {
  std::vector<std::pair<DoorId, DoorId>> door_pairs;
  std::vector<std::pair<DoorId, PartitionId>> door_partition;
  std::vector<std::pair<PartitionId, PartitionId>> partition_pairs;
  std::vector<Client> clients;  // points; consecutive pairs for PointToPoint
  std::vector<PartitionId> targets;  // one per client
  std::vector<NodeId> nodes;         // one per client
};

Samples MakeSamples(const Venue& venue, std::size_t num_nodes) {
  constexpr std::size_t kCount = 400;
  Rng rng(20261019);
  Samples s;
  const auto door = [&] {
    return static_cast<DoorId>(rng.NextBounded(venue.num_doors()));
  };
  const auto partition = [&] {
    return static_cast<PartitionId>(rng.NextBounded(venue.num_partitions()));
  };
  for (std::size_t i = 0; i < kCount; ++i) {
    s.door_pairs.emplace_back(door(), door());
    s.door_partition.emplace_back(door(), partition());
    s.partition_pairs.emplace_back(partition(), partition());
    s.clients.push_back(
        RandomClient(venue, &rng, static_cast<ClientId>(i)));
    s.targets.push_back(partition());
    s.nodes.push_back(static_cast<NodeId>(rng.NextBounded(num_nodes)));
  }
  // A few targets equal to the client's own partition (the 0 shortcuts).
  for (std::size_t i = 0; i < kCount; i += 16) {
    s.targets[i] = s.clients[i].partition;
  }
  return s;
}

/// Named digests of one oracle over `samples`. Each argument is evaluated
/// twice in a row, so a warm memo's answer is folded in next to the cold
/// one.
using Digests = std::vector<std::pair<std::string, std::uint64_t>>;

template <typename Fn>
void Twice(Digest* d, Fn&& fn) {
  d->Add(fn());
  d->Add(fn());
}

Digests PointDigests(const DistanceOracle& o, const Samples& s) {
  Digest to_partition;
  Digest to_point;
  for (std::size_t i = 0; i < s.clients.size(); ++i) {
    const Client& a = s.clients[i];
    const Client& b = s.clients[(i + 1) % s.clients.size()];
    Twice(&to_partition, [&] {
      return o.PointToPartition(a.position, a.partition, s.targets[i]);
    });
    Twice(&to_point, [&] {
      return o.PointToPoint(a.position, a.partition, b.position, b.partition);
    });
  }
  return {{"PointToPartition", to_partition.h}, {"PointToPoint", to_point.h}};
}

Digests TreeDigests(const VipTree& tree, const Samples& s) {
  tree.ClearDistanceCache();
  Digest door_to_door;
  for (const auto& [a, b] : s.door_pairs) {
    Twice(&door_to_door, [&] { return tree.DoorToDoor(a, b); });
  }
  Digest door_to_partition;
  for (const auto& [d, p] : s.door_partition) {
    Twice(&door_to_partition, [&] { return tree.DoorToPartition(d, p); });
  }
  Digest partition_to_partition;
  for (const auto& [p, q] : s.partition_pairs) {
    Twice(&partition_to_partition,
          [&] { return tree.PartitionToPartition(p, q); });
  }
  // Every (p, n) cell: on a mapped tree these are the image's table.
  Digest partition_to_node;
  for (std::size_t p = 0; p < tree.venue().num_partitions(); ++p) {
    for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
      Twice(&partition_to_node, [&] {
        return tree.PartitionToNode(static_cast<PartitionId>(p),
                                    static_cast<NodeId>(n));
      });
    }
  }
  Digest point_to_node;
  for (std::size_t i = 0; i < s.clients.size(); ++i) {
    const Client& a = s.clients[i];
    Twice(&point_to_node, [&] {
      return tree.PointToNode(a.position, a.partition, s.nodes[i]);
    });
  }
  Digests out = {{"DoorToDoor", door_to_door.h},
                 {"DoorToPartition", door_to_partition.h},
                 {"PartitionToPartition", partition_to_partition.h},
                 {"PartitionToNode", partition_to_node.h},
                 {"PointToNode", point_to_node.h}};
  for (auto& d : PointDigests(tree, s)) out.push_back(std::move(d));
  return out;
}

void AddPath(Digest* d, const Result<IndoorPath>& path) {
  if (!path.ok()) {
    d->Add(~std::uint64_t{0});
    return;
  }
  d->Add(static_cast<std::uint64_t>(path->doors.size()));
  for (DoorId door : path->doors) d->Add(static_cast<std::uint64_t>(door));
  d->Add(path->distance);
  d->Add(path->end.x);
  d->Add(path->end.y);
}

Digests PathDigests(const VipTree& tree, const Samples& s) {
  const PathReconstructor paths(&tree);
  Digest to_point;
  Digest to_partition;
  for (std::size_t i = 0; i < s.clients.size(); ++i) {
    const Client& a = s.clients[i];
    const Client& b = s.clients[(i + 1) % s.clients.size()];
    AddPath(&to_point,
            paths.PointToPoint(a.position, a.partition, b.position,
                               b.partition));
    AddPath(&to_partition,
            paths.PointToPartition(a.position, a.partition, s.targets[i]));
  }
  return {{"PathPointToPoint", to_point.h},
          {"PathPointToPartition", to_partition.h}};
}

Digests GraphDigests(const GraphDistanceOracle& graph, const Samples& s) {
  Digests out = PointDigests(graph, s);
  Digest partition_to_partition;
  for (const auto& [p, q] : s.partition_pairs) {
    Twice(&partition_to_partition,
          [&] { return graph.PartitionToPartition(p, q); });
  }
  out.emplace_back("PartitionToPartition", partition_to_partition.h);
  return out;
}

std::vector<kernels::KernelTier> SupportedTiers() {
  std::vector<kernels::KernelTier> tiers;
  for (int t = 0; t < kernels::kNumKernelTiers; ++t) {
    const auto tier = static_cast<kernels::KernelTier>(t);
    if (kernels::KernelTierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

class DistancePinTest : public ::testing::TestWithParam<VenueCase> {};

TEST_P(DistancePinTest, DigestsArePinnedAcrossTiersMemoAndBacking) {
  const VenueCase& c = GetParam();
  const Venue venue =
      Unwrap(c.preset ? BuildPresetVenue(VenuePreset::kMelbourneCentral)
                      : GenerateVenue(c.spec));

  // The first configuration's digests, as (mode/function, digest); every
  // later configuration must reproduce them.
  std::vector<std::pair<std::string, std::uint64_t>> got;
  const auto record = [&](const std::string& mode, const Digests& digests,
                          const std::string& what) {
    for (const auto& [function, digest] : digests) {
      const std::string key = mode + "/" + function;
      bool seen = false;
      for (const auto& [k, d] : got) {
        if (k != key) continue;
        seen = true;
        EXPECT_EQ(d, digest) << c.name << " " << key << " under " << what
                             << " diverged from the first configuration";
      }
      if (!seen) got.emplace_back(key, digest);
    }
  };

  const std::vector<kernels::KernelTier> tiers = SupportedTiers();
  for (const bool vip : {true, false}) {
    const std::string mode = vip ? "vip" : "ip";
    for (const bool memo : {false, true}) {
      VipTreeOptions options;
      options.leaf_capacity = c.leaf_capacity;
      options.internal_fanout = c.internal_fanout;
      options.build_leaf_to_ancestor = vip;
      options.enable_door_distance_cache = memo;
      const VipTree built = Unwrap(VipTree::Build(&venue, options));
      const std::string path = ::testing::TempDir() + "/distance_pin_" +
                               c.name + "_" + mode + (memo ? "_memo" : "") +
                               ".v3.ifls";
      ASSERT_TRUE(built.SaveV3ToFile(path).ok());
      const VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, path));
      ASSERT_TRUE(mapped.is_mapped());
      const Samples samples = MakeSamples(venue, built.num_nodes());
      for (const kernels::KernelTier tier : tiers) {
        ASSERT_TRUE(kernels::PinKernelTier(tier).ok());
        const std::string what = std::string(memo ? "memo" : "no memo") +
                                 " " + kernels::KernelTierName(tier);
        record(mode, TreeDigests(built, samples), what + " heap");
        record(mode, TreeDigests(mapped, samples), what + " mapped");
        record(mode, PathDigests(built, samples), what + " heap");
      }
      kernels::ResetKernelTierAuto();
    }
  }
  const GraphDistanceOracle graph(&venue);
  const Samples samples = MakeSamples(venue, 1);
  for (const kernels::KernelTier tier : tiers) {
    ASSERT_TRUE(kernels::PinKernelTier(tier).ok());
    record("graph", GraphDigests(graph, samples),
           kernels::KernelTierName(tier));
  }
  kernels::ResetKernelTierAuto();

  std::vector<std::string> want;
  for (const DistancePin& pin : kDistancePins) {
    if (pin.venue != c.name) continue;
    std::ostringstream row;
    row << pin;
    want.push_back(row.str());
  }
  std::vector<std::string> rows;
  for (const auto& [key, digest] : got) {
    const std::size_t slash = key.find('/');
    const std::string mode = key.substr(0, slash);
    const std::string function = key.substr(slash + 1);
    std::ostringstream row;
    row << DistancePin{c.name.c_str(), mode.c_str(), function.c_str(),
                       digest};
    rows.push_back(row.str());
  }
  EXPECT_TRUE(rows == want) << c.name << ": digests moved; now";
  if (rows != want) {
    for (const std::string& row : rows) std::printf("    %s\n", row.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Venues, DistancePinTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<VenueCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ifls
