#ifndef IFLS_SERVICE_SNAPSHOT_H_
#define IFLS_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/index/vip_tree.h"
#include "src/indoor/venue.h"
#include "src/service/delta_overlay.h"

namespace ifls {

/// One immutable, reference-counted version of the serving index: the venue,
/// the VIP-tree over it and the canonical (sorted) base facility sets Fe/Fn
/// at the time the snapshot was cut. Snapshots are published RCU-style: once
/// Build() returns, the object is never mutated, so any number of query
/// threads may read it; the shared_ptr refcount keeps a superseded snapshot
/// alive until its last in-flight query finishes.
///
/// The venue and the VIP-tree travel as shared_ptrs because facility
/// mutations never change venue geometry: every snapshot of one service
/// shares the boot snapshot's tree, and solvers index the facility sets
/// themselves per query.
class IndexSnapshot {
 public:
  /// Validates and canonicalizes (sorts) the facility sets and — when `tree`
  /// is null — builds the VIP-tree. Fe/Fn must be in-range, duplicate-free
  /// and disjoint.
  static Result<std::shared_ptr<const IndexSnapshot>> Build(
      std::shared_ptr<const Venue> venue, std::vector<PartitionId> existing,
      std::vector<PartitionId> candidates, std::uint64_t epoch,
      const VipTreeOptions& tree_options,
      std::shared_ptr<const VipTree> tree = nullptr);

  /// Monotonically increasing publication number (0 = the boot snapshot).
  std::uint64_t epoch() const { return epoch_; }

  const Venue& venue() const { return *venue_; }
  const std::shared_ptr<const Venue>& shared_venue() const { return venue_; }
  const VipTree& tree() const { return *tree_; }
  const std::shared_ptr<const VipTree>& shared_tree() const { return tree_; }

  /// Base facility sets, sorted ascending (the canonical order).
  std::span<const PartitionId> existing() const { return existing_; }
  std::span<const PartitionId> candidates() const { return candidates_; }

 private:
  IndexSnapshot() = default;

  std::shared_ptr<const Venue> venue_;
  std::shared_ptr<const VipTree> tree_;
  std::vector<PartitionId> existing_;
  std::vector<PartitionId> candidates_;
  std::uint64_t epoch_ = 0;
};

/// What one query actually runs against: a pinned snapshot plus the
/// effective facility sets (snapshot base ⊕ the overlay's net delta).
/// Immutable and published as a unit (every mutation and every compaction
/// publishes a fresh ServingState), so a reader's single atomic acquire
/// yields a mutually consistent (snapshot, facility sets) pair — no locking,
/// no torn reads. Distances come straight from `snapshot->tree()`: facility
/// mutations never change them.
struct ServingState {
  /// `delta` must validate against the snapshot's base sets (IFLS_CHECKed).
  ServingState(std::shared_ptr<const IndexSnapshot> snap,
               const FacilityDelta& delta, std::uint64_t version = 0);

  std::shared_ptr<const IndexSnapshot> snapshot;
  /// Composed facility sets, sorted ascending (the canonical order a
  /// from-scratch rebuild over them uses).
  std::vector<PartitionId> effective_existing;
  std::vector<PartitionId> effective_candidates;
  /// Net changes composed on top of the snapshot's base sets.
  std::size_t overlay_size = 0;
  /// Facility mutations the owning service had accepted when this state was
  /// published. Survives compaction (a fold republishes the same version
  /// under a new epoch), so it is the global version iterators and
  /// subscription pushes are pinned to. 0 for states built outside a
  /// service.
  std::uint64_t version = 0;
};

}  // namespace ifls

#endif  // IFLS_SERVICE_SNAPSHOT_H_
