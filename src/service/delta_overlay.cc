#include "src/service/delta_overlay.h"

#include <algorithm>
#include <iterator>
#include <string>

namespace ifls {
namespace {

bool IsSortedUnique(std::span<const PartitionId> ids) {
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (ids[i - 1] >= ids[i]) return false;
  }
  return true;
}

bool Contains(std::span<const PartitionId> sorted, PartitionId p) {
  return std::binary_search(sorted.begin(), sorted.end(), p);
}

Status CheckSortedUnique(std::span<const PartitionId> ids, const char* what) {
  if (!IsSortedUnique(ids)) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be sorted ascending and unique");
  }
  return Status::OK();
}

std::vector<FacilityKind> BuildKinds(
    std::size_t num_partitions, std::span<const PartitionId> existing,
    std::span<const PartitionId> candidates) {
  std::vector<FacilityKind> kinds(num_partitions, FacilityKind::kNone);
  for (PartitionId p : existing) {
    kinds[static_cast<std::size_t>(p)] = FacilityKind::kExisting;
  }
  for (PartitionId p : candidates) {
    kinds[static_cast<std::size_t>(p)] = FacilityKind::kCandidate;
  }
  return kinds;
}

const char* RoleName(FacilityKind kind) {
  switch (kind) {
    case FacilityKind::kNone:
      return "unassigned";
    case FacilityKind::kExisting:
      return "an existing facility";
    case FacilityKind::kCandidate:
      return "a candidate location";
  }
  return "?";
}

}  // namespace

const char* MutationKindName(MutationKind kind) {
  switch (kind) {
    case MutationKind::kAddFacility:
      return "AddFacility";
    case MutationKind::kRemoveFacility:
      return "RemoveFacility";
    case MutationKind::kAddCandidate:
      return "AddCandidate";
    case MutationKind::kRemoveCandidate:
      return "RemoveCandidate";
  }
  return "unknown";
}

std::vector<PartitionId> ComposeFacilitySet(
    std::span<const PartitionId> base, std::span<const PartitionId> added,
    std::span<const PartitionId> removed) {
  std::vector<PartitionId> kept;
  kept.reserve(base.size() + added.size());
  std::set_difference(base.begin(), base.end(), removed.begin(),
                      removed.end(), std::back_inserter(kept));
  std::vector<PartitionId> out;
  out.reserve(kept.size() + added.size());
  std::set_union(kept.begin(), kept.end(), added.begin(), added.end(),
                 std::back_inserter(out));
  return out;
}

Status ValidateFacilityDelta(const FacilityDelta& delta,
                             std::span<const PartitionId> base_existing,
                             std::span<const PartitionId> base_candidates) {
  IFLS_RETURN_NOT_OK(CheckSortedUnique(base_existing, "base existing set"));
  IFLS_RETURN_NOT_OK(CheckSortedUnique(base_candidates, "base candidate set"));
  IFLS_RETURN_NOT_OK(CheckSortedUnique(delta.added_existing,
                                       "delta.added_existing"));
  IFLS_RETURN_NOT_OK(CheckSortedUnique(delta.removed_existing,
                                       "delta.removed_existing"));
  IFLS_RETURN_NOT_OK(CheckSortedUnique(delta.added_candidates,
                                       "delta.added_candidates"));
  IFLS_RETURN_NOT_OK(CheckSortedUnique(delta.removed_candidates,
                                       "delta.removed_candidates"));
  for (PartitionId p : delta.removed_existing) {
    if (!Contains(base_existing, p)) {
      return Status::InvalidArgument(
          "removed_existing partition " + std::to_string(p) +
          " is not in the base existing set");
    }
  }
  for (PartitionId p : delta.added_existing) {
    if (Contains(base_existing, p)) {
      return Status::InvalidArgument("added_existing partition " +
                                     std::to_string(p) +
                                     " already in the base existing set");
    }
  }
  for (PartitionId p : delta.removed_candidates) {
    if (!Contains(base_candidates, p)) {
      return Status::InvalidArgument(
          "removed_candidates partition " + std::to_string(p) +
          " is not in the base candidate set");
    }
  }
  for (PartitionId p : delta.added_candidates) {
    if (Contains(base_candidates, p)) {
      return Status::InvalidArgument("added_candidates partition " +
                                     std::to_string(p) +
                                     " already in the base candidate set");
    }
  }
  const std::vector<PartitionId> fe = ComposeFacilitySet(
      base_existing, delta.added_existing, delta.removed_existing);
  const std::vector<PartitionId> fn = ComposeFacilitySet(
      base_candidates, delta.added_candidates, delta.removed_candidates);
  std::vector<PartitionId> both;
  std::set_intersection(fe.begin(), fe.end(), fn.begin(), fn.end(),
                        std::back_inserter(both));
  if (!both.empty()) {
    return Status::InvalidArgument(
        "composed existing and candidate sets intersect at partition " +
        std::to_string(both.front()));
  }
  return Status::OK();
}

DeltaOverlay::DeltaOverlay(std::size_t num_partitions,
                           std::span<const PartitionId> base_existing,
                           std::span<const PartitionId> base_candidates)
    : base_kind_(BuildKinds(num_partitions, base_existing, base_candidates)) {}

FacilityKind DeltaOverlay::EffectiveKind(PartitionId p) const {
  const auto it = overrides_.find(p);
  if (it != overrides_.end()) return it->second;
  return base_kind_[static_cast<std::size_t>(p)];
}

Status DeltaOverlay::Apply(const Mutation& m) {
  const PartitionId p = m.partition;
  if (p < 0 || static_cast<std::size_t>(p) >= base_kind_.size()) {
    return Status::OutOfRange(std::string(MutationKindName(m.kind)) + "(" +
                              std::to_string(p) + "): partition out of range");
  }
  const FacilityKind effective = EffectiveKind(p);
  FacilityKind target = FacilityKind::kNone;
  switch (m.kind) {
    case MutationKind::kAddFacility:
    case MutationKind::kAddCandidate: {
      target = m.kind == MutationKind::kAddFacility ? FacilityKind::kExisting
                                                    : FacilityKind::kCandidate;
      if (effective == target) {
        return Status::AlreadyExists(
            std::string(MutationKindName(m.kind)) + "(" + std::to_string(p) +
            "): partition is already " + RoleName(target));
      }
      if (effective != FacilityKind::kNone) {
        return Status::FailedPrecondition(
            std::string(MutationKindName(m.kind)) + "(" + std::to_string(p) +
            "): partition is currently " + RoleName(effective) +
            "; remove that role first");
      }
      break;
    }
    case MutationKind::kRemoveFacility:
    case MutationKind::kRemoveCandidate: {
      const FacilityKind required = m.kind == MutationKind::kRemoveFacility
                                        ? FacilityKind::kExisting
                                        : FacilityKind::kCandidate;
      if (effective != required) {
        return Status::NotFound(std::string(MutationKindName(m.kind)) + "(" +
                                std::to_string(p) + "): partition is " +
                                RoleName(effective) + ", not " +
                                RoleName(required));
      }
      target = FacilityKind::kNone;
      break;
    }
  }
  if (base_kind_[static_cast<std::size_t>(p)] == target) {
    overrides_.erase(p);  // back to its base role: net change cancels
  } else {
    overrides_[p] = target;
  }
  ++mutations_applied_;
  return Status::OK();
}

FacilityDelta DeltaOverlay::delta() const {
  FacilityDelta d;
  for (const auto& [p, kind] : overrides_) {
    const FacilityKind base = base_kind_[static_cast<std::size_t>(p)];
    if (base == FacilityKind::kExisting && kind != FacilityKind::kExisting) {
      d.removed_existing.push_back(p);
    }
    if (base == FacilityKind::kCandidate && kind != FacilityKind::kCandidate) {
      d.removed_candidates.push_back(p);
    }
    if (kind == FacilityKind::kExisting && base != FacilityKind::kExisting) {
      d.added_existing.push_back(p);
    }
    if (kind == FacilityKind::kCandidate &&
        base != FacilityKind::kCandidate) {
      d.added_candidates.push_back(p);
    }
  }
  return d;  // map iteration order keeps every bucket sorted
}

void DeltaOverlay::Fold() {
  for (const auto& [p, kind] : overrides_) {
    base_kind_[static_cast<std::size_t>(p)] = kind;
  }
  overrides_.clear();
}

}  // namespace ifls
