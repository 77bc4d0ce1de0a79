#include "src/index/path.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "src/datasets/bsp_venue.h"
#include "src/index/graph_oracle.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::BuildTinyVenue;
using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::TinyVenue;
using testing_util::Unwrap;

class PathTest : public ::testing::Test {
 protected:
  void SetUp() override { Init(Unwrap(GenerateVenue(SmallVenueSpec()))); }

  void Init(Venue venue) {
    venue_ = std::move(venue);
    tree_ = std::make_unique<VipTree>(Unwrap(VipTree::Build(&venue_)));
    reconstructor_ = std::make_unique<PathReconstructor>(tree_.get());
  }

  Venue venue_;
  std::unique_ptr<VipTree> tree_;
  std::unique_ptr<PathReconstructor> reconstructor_;
};

/// Walks the path's waypoints and sums planar legs plus stair costs; must
/// equal the reported distance.
double WalkPath(const Venue& venue, const IndoorPath& path) {
  double total = 0.0;
  Point prev = path.start;
  for (DoorId d : path.doors) {
    const Door& door = venue.door(d);
    total += PlanarDistance(prev, door.position) + door.vertical_cost;
    prev = door.position;
  }
  total += PlanarDistance(prev, path.end);
  // Stair costs are charged once per crossing above, but PointToDoorDistance
  // charges half per side; both conventions add up to vertical_cost per
  // crossed stair door, so the walk matches iDist.
  return total;
}

TEST_F(PathTest, SamePartitionPathIsDirect) {
  const Partition& p = venue_.partition(0);
  const Point a(p.rect.min_x + 0.5, p.rect.min_y + 0.5, p.level());
  const Point b = p.rect.center();
  IndoorPath path = Unwrap(reconstructor_->PointToPoint(a, 0, b, 0));
  EXPECT_TRUE(path.doors.empty());
  EXPECT_DOUBLE_EQ(path.distance, PlanarDistance(a, b));
}

TEST_F(PathTest, PathDistanceMatchesIndexDistance) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) {
    const Client a = RandomClient(venue_, &rng, 0);
    const Client b = RandomClient(venue_, &rng, 1);
    IndoorPath path = Unwrap(reconstructor_->PointToPoint(
        a.position, a.partition, b.position, b.partition));
    EXPECT_NEAR(path.distance,
                tree_->PointToPoint(a.position, a.partition, b.position,
                                    b.partition),
                1e-9);
  }
}

/// Random point-to-point routes: walking each route's doors reproduces its
/// distance, which equals the index's iDist.
void ExpectWalksReproduceTheDistance(const Venue& venue, const VipTree& tree,
                                     const PathReconstructor& reconstructor,
                                     std::uint64_t seed, int trials) {
  Rng rng(seed);
  for (int i = 0; i < trials; ++i) {
    const Client a = RandomClient(venue, &rng, 0);
    const Client b = RandomClient(venue, &rng, 1);
    IndoorPath path = Unwrap(reconstructor.PointToPoint(
        a.position, a.partition, b.position, b.partition));
    EXPECT_NEAR(path.distance,
                tree.PointToPoint(a.position, a.partition, b.position,
                                  b.partition),
                1e-9)
        << "trial " << i;
    EXPECT_NEAR(WalkPath(venue, path), path.distance, 1e-9) << "trial " << i;
  }
}

/// Random point-to-point routes: the first door is on the start partition,
/// the last on the end partition, and consecutive doors share a partition.
void ExpectConsecutiveDoorsShareAPartition(
    const Venue& venue, const PathReconstructor& reconstructor,
    std::uint64_t seed, int trials) {
  Rng rng(seed);
  for (int i = 0; i < trials; ++i) {
    const Client a = RandomClient(venue, &rng, 0);
    const Client b = RandomClient(venue, &rng, 1);
    IndoorPath path = Unwrap(reconstructor.PointToPoint(
        a.position, a.partition, b.position, b.partition));
    if (path.doors.empty()) continue;
    EXPECT_TRUE(venue.door(path.doors.front()).Connects(a.partition));
    EXPECT_TRUE(venue.door(path.doors.back()).Connects(b.partition));
    for (std::size_t j = 1; j < path.doors.size(); ++j) {
      const Door& prev = venue.door(path.doors[j - 1]);
      const Door& cur = venue.door(path.doors[j]);
      const bool share =
          prev.Connects(cur.partition_a) || prev.Connects(cur.partition_b);
      EXPECT_TRUE(share) << "trial " << i << " hop " << j
                         << " jumps between partitions";
    }
  }
}

TEST_F(PathTest, WalkingTheDoorsReproducesTheDistance) {
  ExpectWalksReproduceTheDistance(venue_, *tree_, *reconstructor_, 43, 100);
}

TEST_F(PathTest, ConsecutiveDoorsShareAPartition) {
  ExpectConsecutiveDoorsShareAPartition(venue_, *reconstructor_, 44, 50);
}

/// The same route checks on a two-level BSP venue: rooms open into each
/// other and extra doors add alternative routes, so equal-length routes
/// (ties) are common and any of them must satisfy the checks.
class BspPathTest : public PathTest {
 protected:
  void SetUp() override {
    BspVenueSpec spec;
    spec.levels = 2;
    spec.rooms_per_level = 28;
    spec.width = 90;
    spec.height = 70;
    Rng rng(17);
    Init(Unwrap(GenerateBspVenue(spec, &rng)));
  }
};

TEST_F(BspPathTest, WalkingTheDoorsReproducesTheDistance) {
  ExpectWalksReproduceTheDistance(venue_, *tree_, *reconstructor_, 47, 200);
}

TEST_F(BspPathTest, ConsecutiveDoorsShareAPartition) {
  ExpectConsecutiveDoorsShareAPartition(venue_, *reconstructor_, 48, 200);
}

TEST_F(PathTest, PointToPartitionEndsAtTargetDoor) {
  Rng rng(45);
  for (int i = 0; i < 50; ++i) {
    const Client a = RandomClient(venue_, &rng, 0);
    const auto target = static_cast<PartitionId>(
        rng.NextBounded(venue_.num_partitions()));
    IndoorPath path = Unwrap(
        reconstructor_->PointToPartition(a.position, a.partition, target));
    EXPECT_NEAR(path.distance,
                tree_->PointToPartition(a.position, a.partition, target),
                1e-9);
    if (a.partition != target) {
      ASSERT_FALSE(path.doors.empty());
      EXPECT_TRUE(venue_.door(path.doors.back()).Connects(target));
    }
  }
}

TEST_F(PathTest, CrossLevelPathUsesStairDoors) {
  TinyVenue t = BuildTinyVenue();
  VipTree tree = Unwrap(VipTree::Build(&t.venue));
  PathReconstructor reconstructor(&tree);
  IndoorPath path = Unwrap(reconstructor.PointToPoint(
      Point(5, 2, 0), t.room_a, Point(7, 6, 1), t.room_d));
  bool crossed_stairs = false;
  for (DoorId d : path.doors) {
    crossed_stairs = crossed_stairs || t.venue.door(d).is_stair_door();
  }
  EXPECT_TRUE(crossed_stairs);
  EXPECT_NEAR(path.distance,
              tree.PointToPoint(Point(5, 2, 0), t.room_a, Point(7, 6, 1),
                                t.room_d),
              1e-9);
}

TEST_F(PathTest, WaypointsAndDescribe) {
  Rng rng(46);
  const Client a = RandomClient(venue_, &rng, 0);
  const Client b = RandomClient(venue_, &rng, 1);
  IndoorPath path = Unwrap(reconstructor_->PointToPoint(
      a.position, a.partition, b.position, b.partition));
  const auto waypoints = PathReconstructor::Waypoints(path, venue_);
  EXPECT_EQ(waypoints.size(), path.doors.size() + 2);
  EXPECT_EQ(waypoints.front(), a.position);
  EXPECT_EQ(waypoints.back(), b.position);
  const std::string description = PathReconstructor::Describe(path, venue_);
  EXPECT_NE(description.find("partition"), std::string::npos);
}

TEST_F(PathTest, InvalidEndpointsRejected) {
  const Point p = venue_.partition(0).rect.center();
  EXPECT_TRUE(reconstructor_->PointToPoint(p, -1, p, 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(reconstructor_->PointToPoint(Point(-999, -999, 0), 0, p, 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(reconstructor_
                  ->PointToPartition(p, 0,
                                     static_cast<PartitionId>(
                                         venue_.num_partitions()))
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace ifls
