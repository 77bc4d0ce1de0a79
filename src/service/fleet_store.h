#ifndef IFLS_SERVICE_FLEET_STORE_H_
#define IFLS_SERVICE_FLEET_STORE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/index/vip_tree.h"
#include "src/indoor/venue.h"

namespace ifls {

// The on-disk layout VenueRouter serves from: one subdirectory per venue
// under a fleet root, each holding everything needed to (re)hydrate an
// IflsService without rebuilding the index:
//
//   <root>/<venue_id>/venue.txt       IFLS_VENUE text (io/venue_io)
//   <root>/<venue_id>/index.v3.ifls   VIP-tree snapshot, format v3 (mmap)
//   <root>/<venue_id>/facilities.txt  base existing/candidate sets
//
// Venue ids are the subdirectory names. Writing is offline (build once,
// serve many). The v3 image is the only index format there is. Other files
// in a venue directory (e.g. an old v2 text index) are ignored.

inline constexpr char kFleetVenueFileName[] = "venue.txt";
inline constexpr char kFleetIndexV3FileName[] = "index.v3.ifls";
inline constexpr char kFleetFacilitiesFileName[] = "facilities.txt";

/// How LoadVenueSnapshot hydrates the index: v3 mmap only. The enum and the
/// parameter stay because the benchmark (e2ebench/) passes kMmap explicitly.
enum class SnapshotLoadMode {
  /// Zero-copy: mmap the v3 file; arenas stay file-backed.
  kMmap,
};

/// One venue's snapshot, hydrated. The tree points at the venue, so the two
/// travel together; both are shared with the IndexSnapshots built on top.
struct LoadedVenueSnapshot {
  std::shared_ptr<const Venue> venue;
  std::shared_ptr<const VipTree> tree;
  std::vector<PartitionId> existing;
  std::vector<PartitionId> candidates;
};

/// Writes one venue's snapshot under `dir` (created if missing): the venue,
/// the v3 index image and the facility sets. Overwrites existing files;
/// partial writes surface as IOError.
Status WriteVenueSnapshot(const std::string& dir, const Venue& venue,
                          const VipTree& tree,
                          std::span<const PartitionId> existing,
                          std::span<const PartitionId> candidates);

/// Hydrates the snapshot written to `dir` by mapping its v3 index.
Result<LoadedVenueSnapshot> LoadVenueSnapshot(const std::string& dir,
                                              SnapshotLoadMode mode);

/// Venue ids (subdirectory names containing a venue file) under `root`,
/// sorted ascending for deterministic iteration.
Result<std::vector<std::string>> ListFleetVenues(const std::string& root);

}  // namespace ifls

#endif  // IFLS_SERVICE_FLEET_STORE_H_
