#include "src/index/facility_index.h"

#include "src/common/logging.h"

namespace ifls {

FacilityIndex::FacilityIndex(const DistanceOracle* oracle,
                             const std::vector<PartitionId>& existing)
    : oracle_(oracle) {
  IFLS_CHECK(oracle != nullptr);
  kinds_.assign(oracle->venue().num_partitions(), FacilityKind::kNone);
  subtree_counts_.assign(static_cast<std::size_t>(oracle->num_nodes()), 0);
  for (PartitionId p : existing) Register(p, FacilityKind::kExisting);
}

void FacilityIndex::AddCandidates(const std::vector<PartitionId>& candidates) {
  for (PartitionId p : candidates) Register(p, FacilityKind::kCandidate);
}

void FacilityIndex::Register(PartitionId p, FacilityKind kind) {
  IFLS_CHECK(p >= 0 && static_cast<std::size_t>(p) < kinds_.size())
      << "facility partition " << p << " out of range";
  IFLS_CHECK(kinds_[static_cast<std::size_t>(p)] == FacilityKind::kNone)
      << "partition " << p << " registered twice (existing/candidate overlap)";
  kinds_[static_cast<std::size_t>(p)] = kind;
  if (kind == FacilityKind::kExisting) {
    ++num_existing_;
  } else {
    ++num_candidates_;
  }
  for (NodeId n = oracle_->LeafOf(p); n != kInvalidNode;
       n = oracle_->Parent(n)) {
    ++subtree_counts_[static_cast<std::size_t>(n)];
  }
}

}  // namespace ifls
