#include "src/index/path.h"

#include <sstream>
#include <vector>

#include "src/common/logging.h"

namespace ifls {

PathReconstructor::PathReconstructor(const VipTree* tree)
    : tree_(tree), graph_(tree->venue()) {
  IFLS_CHECK(tree != nullptr);
}

namespace {

Status ValidateEndpoint(const Venue& venue, const Point& p, PartitionId pid,
                        const char* which) {
  if (pid < 0 || static_cast<std::size_t>(pid) >= venue.num_partitions()) {
    return Status::InvalidArgument(std::string(which) +
                                   " partition id out of range");
  }
  if (!venue.partition(pid).rect.Contains(p)) {
    return Status::InvalidArgument(std::string(which) +
                                   " point lies outside its partition");
  }
  return Status::OK();
}

}  // namespace

std::vector<DoorId> PathReconstructor::DoorRoute(DoorId a, DoorId b) const {
  const ShortestPaths paths = ShortestPathsToTargets(graph_, a, {b});
  std::vector<DoorId> route = ReconstructPath(paths, a, b);
  IFLS_CHECK(!route.empty()) << "unreachable door pair in connected venue";
  return route;
}

Result<IndoorPath> PathReconstructor::PointToPoint(const Point& a,
                                                   PartitionId pa,
                                                   const Point& b,
                                                   PartitionId pb) const {
  const Venue& venue = tree_->venue();
  IFLS_RETURN_NOT_OK(ValidateEndpoint(venue, a, pa, "start"));
  IFLS_RETURN_NOT_OK(ValidateEndpoint(venue, b, pb, "end"));
  IndoorPath path;
  path.start = a;
  path.start_partition = pa;
  path.end = b;
  path.end_partition = pb;
  if (pa == pb) {
    path.distance = PlanarDistance(a, b);
    return path;
  }
  // The first door pair attaining the minimum in (d1, d2) scan order.
  const std::vector<DoorId>& doors_b = venue.partition(pb).doors;
  double best = kInfDistance;
  DoorId best_a = kInvalidDoor;
  DoorId best_b = kInvalidDoor;
  for (DoorId d1 : venue.partition(pa).doors) {
    const double leg_a = PointToDoorDistance(a, venue.door(d1));
    for (DoorId d2 : doors_b) {
      const double leg_b = PointToDoorDistance(b, venue.door(d2));
      const double cand = leg_a + tree_->DoorToDoor(d1, d2) + leg_b;
      if (cand < best) {
        best = cand;
        best_a = d1;
        best_b = d2;
      }
    }
  }
  if (best_a == kInvalidDoor) {
    return Status::NotFound("no door route between the partitions");
  }
  path.distance = best;
  path.doors = DoorRoute(best_a, best_b);
  return path;
}

Result<IndoorPath> PathReconstructor::PointToPartition(
    const Point& a, PartitionId pa, PartitionId target) const {
  const Venue& venue = tree_->venue();
  IFLS_RETURN_NOT_OK(ValidateEndpoint(venue, a, pa, "start"));
  if (target < 0 ||
      static_cast<std::size_t>(target) >= venue.num_partitions()) {
    return Status::InvalidArgument("target partition id out of range");
  }
  IndoorPath path;
  path.start = a;
  path.start_partition = pa;
  path.end_partition = target;
  if (pa == target) {
    path.end = a;
    path.distance = 0.0;
    return path;
  }
  // The first door pair attaining the minimum in (d1, d2) scan order.
  double best = kInfDistance;
  DoorId best_a = kInvalidDoor;
  DoorId best_b = kInvalidDoor;
  for (DoorId d1 : venue.partition(pa).doors) {
    const double leg = PointToDoorDistance(a, venue.door(d1));
    for (DoorId d2 : venue.partition(target).doors) {
      const double cand = leg + tree_->DoorToDoor(d1, d2);
      if (cand < best) {
        best = cand;
        best_a = d1;
        best_b = d2;
      }
    }
  }
  if (best_a == kInvalidDoor) {
    return Status::NotFound("no door route to the target partition");
  }
  path.distance = best;
  path.doors = DoorRoute(best_a, best_b);
  path.end = venue.door(best_b).position;
  return path;
}

std::vector<Point> PathReconstructor::Waypoints(const IndoorPath& path,
                                                const Venue& venue) {
  std::vector<Point> points;
  points.reserve(path.doors.size() + 2);
  points.push_back(path.start);
  for (DoorId d : path.doors) points.push_back(venue.door(d).position);
  points.push_back(path.end);
  return points;
}

std::string PathReconstructor::Describe(const IndoorPath& path,
                                        const Venue& venue) {
  std::ostringstream os;
  os << "partition " << path.start_partition;
  for (DoorId d : path.doors) {
    const Door& door = venue.door(d);
    os << " -> door " << d;
    if (door.is_stair_door()) os << " (stairs)";
  }
  os << " -> partition " << path.end_partition << " [" << path.distance
     << " m, " << path.doors.size() << " doors]";
  return os.str();
}

}  // namespace ifls
