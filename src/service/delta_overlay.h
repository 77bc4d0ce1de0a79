#ifndef IFLS_SERVICE_DELTA_OVERLAY_H_
#define IFLS_SERVICE_DELTA_OVERLAY_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/index/facility_index.h"

namespace ifls {

/// Net facility-set difference between a base index snapshot and the live
/// serving state: partitions opened/closed as existing facilities (Fe) and
/// added/withdrawn candidate locations (Fn) since the snapshot was built.
/// All four vectors are sorted ascending and mutually consistent: a
/// partition appears in at most one of them, `removed_*` entries are members
/// of the base set and `added_*` entries are not.
struct FacilityDelta {
  std::vector<PartitionId> added_existing;
  std::vector<PartitionId> removed_existing;
  std::vector<PartitionId> added_candidates;
  std::vector<PartitionId> removed_candidates;

  bool empty() const {
    return added_existing.empty() && removed_existing.empty() &&
           added_candidates.empty() && removed_candidates.empty();
  }
  /// Number of net changes carried.
  std::size_t size() const {
    return added_existing.size() + removed_existing.size() +
           added_candidates.size() + removed_candidates.size();
  }
};

/// Canonical composition base ∪ added ∖ removed. `base` must be sorted
/// ascending; the result is sorted ascending — the same canonical order a
/// from-scratch rebuild over the composed set uses, which is what makes
/// solver tie-breaks on (snapshot ⊕ delta) bit-identical to a rebuild.
std::vector<PartitionId> ComposeFacilitySet(
    std::span<const PartitionId> base, std::span<const PartitionId> added,
    std::span<const PartitionId> removed);

/// Validates a delta against sorted base Fe/Fn: sortedness, uniqueness,
/// membership of removals, non-membership of additions, and Fe/Fn
/// disjointness of the composed sets.
Status ValidateFacilityDelta(const FacilityDelta& delta,
                             std::span<const PartitionId> base_existing,
                             std::span<const PartitionId> base_candidates);

/// A facility mutation accepted by the online service.
enum class MutationKind : std::uint8_t {
  kAddFacility = 0,     // partition becomes an existing facility (Fe)
  kRemoveFacility = 1,  // existing facility closes
  kAddCandidate = 2,    // partition becomes a candidate location (Fn)
  kRemoveCandidate = 3, // candidate withdrawn
};

/// "AddFacility" / "RemoveFacility" / "AddCandidate" / "RemoveCandidate".
const char* MutationKindName(MutationKind kind);

struct Mutation {
  MutationKind kind = MutationKind::kAddFacility;
  PartitionId partition = kInvalidPartition;
};

/// The mutable write side of the serving subsystem: absorbs facility
/// mutations relative to a base snapshot and keeps the *net* difference (a
/// partition toggled back to its base role drops out entirely, so the
/// overlay's size tracks genuine drift, not traffic). Compaction builds a
/// fresh snapshot over the effective sets and Fold()s the overlay into its
/// base under the same writer lock, so the overlay is empty afterwards.
///
/// Validation is strict and stateful: each mutation is checked against the
/// partition's *effective* role (base ⊕ overlay), so the mutation stream is
/// replayable — the same sequence accepted here produces the same effective
/// sets on a from-scratch rebuild. Promoting a candidate to a facility takes
/// an explicit RemoveCandidate first (and vice versa); the two sets stay
/// disjoint by construction.
///
/// Not internally synchronized: the owning service serializes writers and
/// snapshots the net delta under its own lock.
class DeltaOverlay {
 public:
  /// Base facility sets must be sorted, unique, disjoint and in range
  /// (IndexSnapshot::Build canonicalizes them).
  DeltaOverlay(std::size_t num_partitions,
               std::span<const PartitionId> base_existing,
               std::span<const PartitionId> base_candidates);

  /// Validates `m` against the effective state and absorbs it.
  ///   kOutOfRange           partition id outside the venue
  ///   kAlreadyExists        Add* of a partition already in that role
  ///   kFailedPrecondition   Add* of a partition holding the *other* role
  ///   kNotFound             Remove* of a partition not in that role
  Status Apply(const Mutation& m);

  /// Effective role of a partition under base ⊕ overlay.
  FacilityKind EffectiveKind(PartitionId p) const;

  /// Net difference vs the current base, canonical sorted order.
  FacilityDelta delta() const;

  /// Number of partitions whose effective role differs from the base — the
  /// compaction trigger metric.
  std::size_t net_size() const { return overrides_.size(); }

  /// Mutations accepted since construction (monotonic, survives rebases).
  std::uint64_t mutations_applied() const { return mutations_applied_; }

  /// Makes the effective roles the new base and clears every override:
  /// the overlay's side of a compaction that published a snapshot over the
  /// effective sets.
  void Fold();

 private:
  std::vector<FacilityKind> base_kind_;  // per partition, current base
  /// Effective role of every partition whose role differs from base. An
  /// ordered map so delta() streams each bucket already sorted.
  std::map<PartitionId, FacilityKind> overrides_;
  std::uint64_t mutations_applied_ = 0;
};

}  // namespace ifls

#endif  // IFLS_SERVICE_DELTA_OVERLAY_H_
