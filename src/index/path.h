#ifndef IFLS_INDEX_PATH_H_
#define IFLS_INDEX_PATH_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/graph/dijkstra.h"
#include "src/graph/door_graph.h"
#include "src/index/vip_tree.h"

namespace ifls {

/// A walkable indoor route: the sequence of doors crossed between two
/// points, with the total walking distance. Waypoints() expands it into a
/// polyline (start, door positions, end) for rendering.
struct IndoorPath {
  Point start;
  PartitionId start_partition = kInvalidPartition;
  Point end;
  PartitionId end_partition = kInvalidPartition;
  /// Doors crossed, in order; empty when both points share a partition.
  std::vector<DoorId> doors;
  double distance = 0.0;

  std::size_t num_hops() const { return doors.size(); }
};

/// Computes full door-level routes. Distances come from the VIP-tree (so a
/// route's length always equals the index's iDist); the door sequence comes
/// from one door-graph Dijkstra between the chosen end doors, stopped once
/// the target door settles. The door graph is built once per reconstructor.
class PathReconstructor {
 public:
  /// The tree must outlive the reconstructor.
  explicit PathReconstructor(const VipTree* tree);

  /// Shortest route between two points. Fails when either partition id is
  /// out of range or the points are not inside their partitions.
  Result<IndoorPath> PointToPoint(const Point& a, PartitionId pa,
                                  const Point& b, PartitionId pb) const;

  /// Shortest route from a point to the nearest door of `target` (e.g. a
  /// client walking to a facility).
  Result<IndoorPath> PointToPartition(const Point& a, PartitionId pa,
                                      PartitionId target) const;

  /// Polyline of a path: start point, each crossed door's position, end
  /// point. Positions on stair doors appear once (the level changes there).
  static std::vector<Point> Waypoints(const IndoorPath& path,
                                      const Venue& venue);

  /// Human-readable route description for logs / examples.
  static std::string Describe(const IndoorPath& path, const Venue& venue);

 private:
  /// Door sequence (inclusive) realizing the shortest a->b door walk.
  std::vector<DoorId> DoorRoute(DoorId a, DoorId b) const;

  const VipTree* tree_;
  DoorGraph graph_;
};

}  // namespace ifls

#endif  // IFLS_INDEX_PATH_H_
