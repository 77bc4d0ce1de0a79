#include "src/graph/dijkstra.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/graph/door_graph.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::BuildTinyVenue;
using testing_util::TinyVenue;
using testing_util::Unwrap;

TEST(DoorGraphTest, EdgeCountsMatchPartitionCliques) {
  TinyVenue t = BuildTinyVenue();
  DoorGraph graph(t.venue);
  EXPECT_EQ(graph.num_doors(), 6u);
  // Corridor has 4 doors -> 4*3 directed edges; each stairwell has 2 doors
  // -> 2 directed edges each; rooms have 1 door -> none.
  EXPECT_EQ(graph.num_edges(), 12u + 2u + 2u);
}

TEST(DoorGraphTest, EdgeWeightsIncludeStairCosts) {
  TinyVenue t = BuildTinyVenue();
  DoorGraph graph(t.venue);
  // door_s0 (16,4) <-> door_stair (16,6), vertical cost 8 charged half.
  bool found = false;
  for (const DoorGraph::Edge* e = graph.EdgesBegin(t.door_s0);
       e != graph.EdgesEnd(t.door_s0); ++e) {
    if (e->to == t.door_stair) {
      EXPECT_DOUBLE_EQ(e->weight, 2.0 + 4.0);
      EXPECT_EQ(e->via, t.stair0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DijkstraTest, DistancesMatchHandComputedValues) {
  TinyVenue t = BuildTinyVenue();
  DoorGraph graph(t.venue);
  const ShortestPaths paths = SingleSourceShortestPaths(graph, t.door_a);
  EXPECT_DOUBLE_EQ(paths.distance[static_cast<std::size_t>(t.door_a)], 0.0);
  EXPECT_DOUBLE_EQ(paths.distance[static_cast<std::size_t>(t.door_b)], 10.0);
  EXPECT_DOUBLE_EQ(paths.distance[static_cast<std::size_t>(t.door_c)],
                   std::sqrt(29.0));
  EXPECT_DOUBLE_EQ(paths.distance[static_cast<std::size_t>(t.door_s0)],
                   std::sqrt(40.0));
  // a -> s0 -> stair door -> d: sqrt(40) + (2 + 4) + (2 + 4).
  EXPECT_DOUBLE_EQ(paths.distance[static_cast<std::size_t>(t.door_stair)],
                   std::sqrt(40.0) + 6.0);
  EXPECT_DOUBLE_EQ(paths.distance[static_cast<std::size_t>(t.door_d)],
                   std::sqrt(40.0) + 12.0);
}

TEST(DijkstraTest, PathReconstruction) {
  TinyVenue t = BuildTinyVenue();
  DoorGraph graph(t.venue);
  const ShortestPaths paths = SingleSourceShortestPaths(graph, t.door_a);
  const std::vector<DoorId> path =
      ReconstructPath(paths, t.door_a, t.door_d);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[0], t.door_a);
  EXPECT_EQ(path[1], t.door_s0);
  EXPECT_EQ(path[2], t.door_stair);
  EXPECT_EQ(path[3], t.door_d);
  // Source to itself.
  EXPECT_EQ(ReconstructPath(paths, t.door_a, t.door_a).size(), 1u);
}

TEST(DijkstraTest, TargetedSearchMatchesFullSearch) {
  Venue venue = Unwrap(GenerateVenue(testing_util::SmallVenueSpec()));
  DoorGraph graph(venue);
  const DoorId source = 0;
  const ShortestPaths full = SingleSourceShortestPaths(graph, source);
  std::vector<DoorId> targets = {
      static_cast<DoorId>(venue.num_doors() - 1),
      static_cast<DoorId>(venue.num_doors() / 2), 3};
  const ShortestPaths targeted =
      ShortestPathsToTargets(graph, source, targets);
  for (DoorId tgt : targets) {
    EXPECT_DOUBLE_EQ(targeted.distance[static_cast<std::size_t>(tgt)],
                     full.distance[static_cast<std::size_t>(tgt)]);
  }
}

TEST(DijkstraTest, SymmetricDistances) {
  // The door graph is undirected, so d(a, b) == d(b, a).
  Venue venue = Unwrap(GenerateVenue(testing_util::SmallVenueSpec()));
  DoorGraph graph(venue);
  const ShortestPaths from0 = SingleSourceShortestPaths(graph, 0);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const DoorId d = static_cast<DoorId>(rng.NextBounded(venue.num_doors()));
    const ShortestPaths back = SingleSourceShortestPaths(graph, d);
    EXPECT_NEAR(from0.distance[static_cast<std::size_t>(d)],
                back.distance[0], 1e-9);
  }
}

TEST(DijkstraTest, TriangleInequalityHolds) {
  Venue venue = Unwrap(GenerateVenue(testing_util::SmallVenueSpec()));
  DoorGraph graph(venue);
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const DoorId a = static_cast<DoorId>(rng.NextBounded(venue.num_doors()));
    const DoorId b = static_cast<DoorId>(rng.NextBounded(venue.num_doors()));
    const DoorId c = static_cast<DoorId>(rng.NextBounded(venue.num_doors()));
    const ShortestPaths from_a = SingleSourceShortestPaths(graph, a);
    const ShortestPaths from_b = SingleSourceShortestPaths(graph, b);
    EXPECT_LE(from_a.distance[static_cast<std::size_t>(c)],
              from_a.distance[static_cast<std::size_t>(b)] +
                  from_b.distance[static_cast<std::size_t>(c)] + 1e-9);
  }
}

TEST(DijkstraTest, UnreachableIsEmptyPath) {
  TinyVenue t = BuildTinyVenue();
  DoorGraph graph(t.venue);
  ShortestPaths paths = SingleSourceShortestPaths(graph, t.door_a);
  // Fabricate an unreachable door index by clearing a distance.
  paths.distance[static_cast<std::size_t>(t.door_d)] = kInfDistance;
  EXPECT_TRUE(ReconstructPath(paths, t.door_a, t.door_d).empty());
}

}  // namespace
}  // namespace ifls
