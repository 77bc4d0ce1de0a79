#include "src/index/vip_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "src/datasets/presets.h"
#include "src/graph/dijkstra.h"
#include "src/graph/door_graph.h"
#include "src/index/graph_oracle.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::BuildTinyVenue;
using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::TinyVenue;
using testing_util::Unwrap;

// ------------------------------------------------------------- Structure

TEST(VipTreeStructureTest, LeavesPartitionTheVenue) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue));
  std::set<PartitionId> covered;
  std::size_t leaves = 0;
  for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
    const VipNode& node = tree.node(static_cast<NodeId>(n));
    if (!node.is_leaf()) continue;
    ++leaves;
    for (PartitionId p : node.partitions) {
      EXPECT_TRUE(covered.insert(p).second) << "partition in two leaves";
      EXPECT_EQ(tree.LeafOf(p), node.id);
    }
    EXPECT_LE(node.partitions.size(),
              static_cast<std::size_t>(tree.options().leaf_capacity));
  }
  EXPECT_EQ(covered.size(), venue.num_partitions());
  EXPECT_EQ(leaves, tree.num_leaves());
}

TEST(VipTreeStructureTest, ParentChildLinksConsistent) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue));
  const VipNode& root = tree.node(tree.root());
  EXPECT_EQ(root.parent, kInvalidNode);
  EXPECT_EQ(root.depth, 0);
  EXPECT_EQ(root.subtree_partitions,
            static_cast<std::int32_t>(venue.num_partitions()));
  for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
    const VipNode& node = tree.node(static_cast<NodeId>(n));
    for (NodeId ch : node.children) {
      EXPECT_EQ(tree.node(ch).parent, node.id);
      EXPECT_EQ(tree.node(ch).depth, node.depth + 1);
    }
    if (!node.is_leaf()) {
      EXPECT_LE(node.children.size(),
                static_cast<std::size_t>(tree.options().internal_fanout));
      std::int32_t total = 0;
      for (NodeId ch : node.children) {
        total += tree.node(ch).subtree_partitions;
      }
      EXPECT_EQ(node.subtree_partitions, total);
    }
  }
}

TEST(VipTreeStructureTest, AccessDoorsHaveExactlyOneSideInside) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue));
  for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
    const NodeId id = static_cast<NodeId>(n);
    const VipNode& node = tree.node(id);
    for (const Door& d : venue.doors()) {
      const bool a_in = tree.NodeContainsPartition(id, d.partition_a);
      const bool b_in = tree.NodeContainsPartition(id, d.partition_b);
      const bool is_access =
          std::binary_search(node.access_doors.begin(),
                             node.access_doors.end(), d.id);
      EXPECT_EQ(is_access, a_in != b_in)
          << "node " << id << " door " << d.id;
    }
  }
}

TEST(VipTreeStructureTest, RootHasNoAccessDoors) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue));
  EXPECT_TRUE(tree.node(tree.root()).access_doors.empty());
}

TEST(VipTreeStructureTest, LeavesNeverStraddleLevels) {
  // The tiny venue spans two levels; even with a huge leaf capacity the
  // builder keeps one leaf per level (floor-coherent nodes whose access
  // doors are the stair doors).
  TinyVenue t = BuildTinyVenue();
  VipTreeOptions options;
  options.leaf_capacity = 16;
  VipTree tree = Unwrap(VipTree::Build(&t.venue, options));
  EXPECT_EQ(tree.num_leaves(), 2u);
  EXPECT_EQ(tree.num_nodes(), 3u);
  EXPECT_NE(tree.LeafOf(t.room_a), tree.LeafOf(t.room_d));
  const VipNode& level0 = tree.node(tree.LeafOf(t.room_a));
  ASSERT_EQ(level0.access_doors.size(), 1u);
  EXPECT_EQ(level0.access_doors[0], t.door_stair);
  // Distances still exact across the levels.
  GraphDistanceOracle oracle(&t.venue);
  EXPECT_NEAR(tree.DoorToDoor(t.door_a, t.door_d),
              oracle.DoorToDoor(t.door_a, t.door_d), 1e-9);
}

TEST(VipTreeStructureTest, SingleLeafVenue) {
  // A one-level venue small enough for one leaf: the root is the leaf.
  VenueBuilder b("one-level");
  const PartitionId room_a = b.AddPartition(Rect(0, 0, 10, 4, 0));
  const PartitionId hall =
      b.AddPartition(Rect(10, 0, 20, 4, 0), PartitionKind::kCorridor);
  const PartitionId room_b = b.AddPartition(Rect(20, 0, 30, 4, 0));
  const DoorId door_a = b.AddDoor(room_a, hall, Point(10, 2, 0));
  const DoorId door_b = b.AddDoor(room_b, hall, Point(20, 2, 0));
  Venue venue = Unwrap(b.Build());
  VipTreeOptions options;
  options.leaf_capacity = 16;
  VipTree tree = Unwrap(VipTree::Build(&venue, options));
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.root(), tree.LeafOf(room_a));
  EXPECT_DOUBLE_EQ(tree.DoorToDoor(door_a, door_b), 10.0);
}

TEST(VipTreeBuildTest, RejectsBadOptions) {
  TinyVenue t = BuildTinyVenue();
  VipTreeOptions options;
  options.leaf_capacity = 0;
  EXPECT_TRUE(VipTree::Build(&t.venue, options).status().IsInvalidArgument());
  options.leaf_capacity = 4;
  options.internal_fanout = 1;
  EXPECT_TRUE(VipTree::Build(&t.venue, options).status().IsInvalidArgument());
  EXPECT_TRUE(VipTree::Build(nullptr).status().IsInvalidArgument());
}

TEST(VipTreeBuildTest, MemoryFootprintAndToStringArePopulated) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue));
  EXPECT_GT(tree.MemoryFootprintBytes(), 0u);
  EXPECT_NE(tree.ToString().find("VIP-tree"), std::string::npos);
  VipTreeOptions ip;
  ip.build_leaf_to_ancestor = false;
  VipTree ip_tree = Unwrap(VipTree::Build(&venue, ip));
  EXPECT_NE(ip_tree.ToString().find("IP-tree"), std::string::npos);
  // The VIP-tree strictly dominates the IP-tree in stored matrix bytes.
  EXPECT_GT(tree.MemoryFootprintBytes(), ip_tree.MemoryFootprintBytes());
}

// The build stops each door's Dijkstra run once every column of its matrix
// rows is settled. Those rows must equal a full single-source run's cell
// for cell and first hop for first hop, in every matrix that has a row for
// the door: the node matrices and, in VIP mode, the leaves' ancestor
// matrices.
TEST(VipTreeBuildTest, RowsEqualFullSingleSourceRuns) {
  VenueGeneratorSpec multi = SmallVenueSpec();
  multi.levels = 3;
  multi.extra_room_doors_per_level = 10;
  multi.door_jitter_seed = 7;
  multi.stairwells = 2;
  std::vector<Venue> venues;
  venues.push_back(Unwrap(GenerateVenue(multi)));
  venues.push_back(Unwrap(BuildPresetVenue(VenuePreset::kMelbourneCentral)));
  for (const Venue& venue : venues) {
    const DoorGraph graph(venue);
    for (const bool vip : {true, false}) {
      for (const int threads : {1, 4}) {
        VipTreeOptions options;
        options.build_leaf_to_ancestor = vip;
        options.build_threads = threads;
        options.leaf_capacity = 4;
        options.internal_fanout = 3;
        const VipTree tree = Unwrap(VipTree::Build(&venue, options));
        int rows_checked = 0;
        // Every third door, so each run covers a few hundred of them.
        for (std::size_t d = 0; d < venue.num_doors(); d += 3) {
          const DoorId door = static_cast<DoorId>(d);
          const ShortestPaths full = SingleSourceShortestPaths(graph, door);
          const auto check_row = [&](const DoorMatrixView& m) {
            const int r = m.RowIndex(door);
            if (r < 0) return;
            ++rows_checked;
            for (std::size_t c = 0; c < m.num_cols(); ++c) {
              const auto col = static_cast<std::size_t>(m.cols()[c]);
              const int ci = static_cast<int>(c);
              ASSERT_EQ(m.At(r, ci), full.distance[col])
                  << "door " << d << " col " << col << " vip " << vip;
              ASSERT_EQ(m.FirstHopAt(r, ci), full.first_hop[col])
                  << "door " << d << " col " << col << " vip " << vip;
            }
          };
          for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
            const VipNode& node = tree.node(static_cast<NodeId>(n));
            check_row(node.matrix);
            for (const DoorMatrixView& anc : node.ancestor_matrices) {
              check_row(anc);
            }
          }
        }
        EXPECT_GT(rows_checked, static_cast<int>(venue.num_doors() / 3));
      }
    }
  }
}

// ------------------------------------------------------------- Distances

/// Parameterized over (leaf_capacity, internal_fanout, leaf_to_ancestor):
/// every configuration must agree exactly with the graph oracle.
class VipTreeDistanceTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {
 protected:
  VipTreeOptions Options() const {
    VipTreeOptions options;
    options.leaf_capacity = std::get<0>(GetParam());
    options.internal_fanout = std::get<1>(GetParam());
    options.build_leaf_to_ancestor = std::get<2>(GetParam());
    return options;
  }
};

TEST_P(VipTreeDistanceTest, DoorToDoorMatchesOracleExhaustively) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue, Options()));
  GraphDistanceOracle oracle(&venue);
  for (std::size_t a = 0; a < venue.num_doors(); ++a) {
    for (std::size_t b = 0; b < venue.num_doors(); ++b) {
      const DoorId da = static_cast<DoorId>(a);
      const DoorId db = static_cast<DoorId>(b);
      ASSERT_NEAR(tree.DoorToDoor(da, db), oracle.DoorToDoor(da, db), 1e-9)
          << "doors " << a << " -> " << b;
    }
  }
}

TEST_P(VipTreeDistanceTest, PointToPointMatchesOracleOnRandomPairs) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue, Options()));
  GraphDistanceOracle oracle(&venue);
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    const Client a = RandomClient(venue, &rng, 0);
    const Client b = RandomClient(venue, &rng, 1);
    ASSERT_NEAR(
        tree.PointToPoint(a.position, a.partition, b.position, b.partition),
        oracle.PointToPoint(a.position, a.partition, b.position, b.partition),
        1e-9);
  }
}

TEST_P(VipTreeDistanceTest, PointToPartitionMatchesOracle) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue, Options()));
  GraphDistanceOracle oracle(&venue);
  Rng rng(78);
  for (int i = 0; i < 300; ++i) {
    const Client a = RandomClient(venue, &rng, 0);
    const auto target = static_cast<PartitionId>(
        rng.NextBounded(venue.num_partitions()));
    ASSERT_NEAR(tree.PointToPartition(a.position, a.partition, target),
                oracle.PointToPartition(a.position, a.partition, target),
                1e-9);
  }
}

TEST_P(VipTreeDistanceTest, PartitionToPartitionMatchesOracle) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue, Options()));
  GraphDistanceOracle oracle(&venue);
  Rng rng(79);
  for (int i = 0; i < 200; ++i) {
    const auto p =
        static_cast<PartitionId>(rng.NextBounded(venue.num_partitions()));
    const auto q =
        static_cast<PartitionId>(rng.NextBounded(venue.num_partitions()));
    ASSERT_NEAR(tree.PartitionToPartition(p, q),
                oracle.PartitionToPartition(p, q), 1e-9);
  }
}

TEST_P(VipTreeDistanceTest, NodeLowerBoundsAreValid) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue, Options()));
  Rng rng(80);
  for (int i = 0; i < 100; ++i) {
    const Client c = RandomClient(venue, &rng, 0);
    const auto n =
        static_cast<NodeId>(rng.NextBounded(tree.num_nodes()));
    const double bound = tree.PointToNode(c.position, c.partition, n);
    // The bound must not exceed the exact distance to any partition inside
    // the node.
    for (const Partition& p : venue.partitions()) {
      if (!tree.NodeContainsPartition(n, p.id)) continue;
      ASSERT_LE(bound, tree.PointToPartition(c.position, c.partition, p.id) +
                           1e-9);
    }
    // And iMinD(p, n) <= point-level bound.
    ASSERT_LE(tree.PartitionToNode(c.partition, n), bound + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, VipTreeDistanceTest,
    ::testing::Values(std::make_tuple(1, 2, true),
                      std::make_tuple(2, 2, true),
                      std::make_tuple(4, 3, true),
                      std::make_tuple(8, 4, true),
                      std::make_tuple(8, 4, false),   // IP-tree
                      std::make_tuple(2, 2, false),   // deep IP-tree
                      std::make_tuple(64, 4, true))); // single leaf

TEST(VipTreeDistanceTest, StairCostsAppearInCrossLevelDistances) {
  TinyVenue t = BuildTinyVenue();
  VipTreeOptions options;
  options.leaf_capacity = 2;
  VipTree tree = Unwrap(VipTree::Build(&t.venue, options));
  // Client in room A to room D must pay both stair half-costs (8 total).
  const Point a(5, 2, 0);
  const double d = tree.PointToPartition(a, t.room_a, t.room_d);
  GraphDistanceOracle oracle(&t.venue);
  EXPECT_NEAR(d, oracle.PointToPartition(a, t.room_a, t.room_d), 1e-9);
  EXPECT_GT(d, 8.0);
}

TEST(VipTreeDistanceTest, SameLevelPairsDoNotPayStairs) {
  TinyVenue t = BuildTinyVenue();
  VipTree tree = Unwrap(VipTree::Build(&t.venue));
  const Point a(5, 2, 0);   // room A
  const Point b(25, 2, 0);  // room B
  // a -> door_a (5) + door_a -> door_b (10) + door_b -> b (5).
  EXPECT_DOUBLE_EQ(tree.PointToPoint(a, t.room_a, b, t.room_b), 20.0);
}

TEST(VipTreeDistanceTest, SinglePartitionPairIsPlanar) {
  TinyVenue t = BuildTinyVenue();
  VipTree tree = Unwrap(VipTree::Build(&t.venue));
  EXPECT_DOUBLE_EQ(
      tree.PointToPoint(Point(1, 1, 0), t.room_a, Point(4, 5, 0), t.room_a),
      5.0);
  EXPECT_DOUBLE_EQ(tree.PointToPartition(Point(1, 1, 0), t.room_a, t.room_a),
                   0.0);
}

TEST(VipTreeDistanceTest, SingleDoorOptimizationMatchesFullComputation) {
  // The single-door shortcut (paper §5.3.1 Case 1) must be bit-identical to
  // the generic composition it replaces: rounding is monotone, so
  // leg + min(d) == min(leg + d).
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue));
  Rng rng(81);
  int single_door = 0;
  for (int i = 0; i < 200; ++i) {
    const Client c = RandomClient(venue, &rng, 0);
    const auto target = static_cast<PartitionId>(
        rng.NextBounded(venue.num_partitions()));
    if (venue.partition(c.partition).doors.size() == 1) ++single_door;
    EXPECT_EQ(tree.PointToPartition(c.position, c.partition, target),
              tree.DistanceOracle::PointToPartition(c.position, c.partition,
                                                    target));
  }
  EXPECT_GT(single_door, 0);
}

TEST(VipTreeDistanceTest, FirstHopIsConsistentWithinLeaf) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue));
  GraphDistanceOracle oracle(&venue);
  // For doors sharing a leaf, walking to the first hop and recursing must
  // reproduce the total distance.
  int checked = 0;
  for (std::size_t n = 0; n < tree.num_nodes() && checked < 50; ++n) {
    const VipNode& node = tree.node(static_cast<NodeId>(n));
    if (!node.is_leaf()) continue;
    for (DoorId a : node.doors) {
      for (DoorId b : node.doors) {
        if (a == b) continue;
        const DoorId hop = tree.FirstHop(a, b);
        if (hop == kInvalidDoor) continue;
        ASSERT_NEAR(oracle.DoorToDoor(a, b),
                    oracle.DoorToDoor(a, hop) + oracle.DoorToDoor(hop, b),
                    1e-9);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(VipTreeDistanceTest, CountersAdvance) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue));
  const DoorId last = static_cast<DoorId>(venue.num_doors() - 1);
  OracleCounters counters;
  {
    ScopedOracleCounterSink sink(&counters);
    (void)tree.DoorToDoor(0, last);
  }
  EXPECT_GE(counters.door_distance_evals, 1u);
  EXPECT_GE(counters.matrix_lookups, 1u);
  // Work done after the scope closed is not counted.
  const OracleCounters before = counters;
  (void)tree.DoorToDoor(0, last);
  EXPECT_EQ(counters.door_distance_evals, before.door_distance_evals);
  EXPECT_EQ(counters.matrix_lookups, before.matrix_lookups);
}

}  // namespace
}  // namespace ifls
