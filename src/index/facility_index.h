#ifndef IFLS_INDEX_FACILITY_INDEX_H_
#define IFLS_INDEX_FACILITY_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/index/distance_oracle.h"

namespace ifls {

/// Whether a facility partition is an existing facility (Fe) or a candidate
/// location (Fn).
enum class FacilityKind : std::uint8_t { kNone = 0, kExisting = 1, kCandidate = 2 };

/// The "object layer" over a distance oracle's node hierarchy: marks which
/// partitions host facilities and maintains per-node subtree facility counts
/// so searches can skip facility-free subtrees in O(1). Mirrors the paper's
/// split between offline indexing of Fe and query-time indexing of Fn:
/// construct with the existing set, then AddCandidates at query time
/// (O(|Fn| * hierarchy height)). Flat oracles expose a single root node, so
/// the index degenerates to one global facility count.
class FacilityIndex {
 public:
  /// Builds with only the existing facilities registered. The oracle must
  /// outlive the index.
  FacilityIndex(const DistanceOracle* oracle,
                const std::vector<PartitionId>& existing);

  /// Registers candidate locations. A partition cannot be both existing and
  /// candidate; duplicates are checked (IFLS_CHECK).
  void AddCandidates(const std::vector<PartitionId>& candidates);

  const DistanceOracle& oracle() const { return *oracle_; }

  FacilityKind kind(PartitionId p) const {
    return kinds_[static_cast<std::size_t>(p)];
  }
  bool IsFacility(PartitionId p) const {
    return kind(p) != FacilityKind::kNone;
  }
  bool IsExisting(PartitionId p) const {
    return kind(p) == FacilityKind::kExisting;
  }
  bool IsCandidate(PartitionId p) const {
    return kind(p) == FacilityKind::kCandidate;
  }

  /// Number of facilities (existing + candidate) in the subtree of `n`.
  std::int32_t SubtreeCount(NodeId n) const {
    return subtree_counts_[static_cast<std::size_t>(n)];
  }

  std::int32_t num_existing() const { return num_existing_; }
  std::int32_t num_candidates() const { return num_candidates_; }

 private:
  void Register(PartitionId p, FacilityKind kind);

  const DistanceOracle* oracle_;
  std::vector<FacilityKind> kinds_;          // per partition
  std::vector<std::int32_t> subtree_counts_; // per node
  std::int32_t num_existing_ = 0;
  std::int32_t num_candidates_ = 0;
};

}  // namespace ifls

#endif  // IFLS_INDEX_FACILITY_INDEX_H_
