#include "src/service/snapshot.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/logging.h"

namespace ifls {
namespace {

Status CanonicalizeSet(std::vector<PartitionId>* ids, std::size_t num_parts,
                       const char* what) {
  std::sort(ids->begin(), ids->end());
  if (std::adjacent_find(ids->begin(), ids->end()) != ids->end()) {
    return Status::InvalidArgument(std::string(what) +
                                   " contains duplicate partitions");
  }
  for (PartitionId p : *ids) {
    if (p < 0 || static_cast<std::size_t>(p) >= num_parts) {
      return Status::OutOfRange(std::string(what) + " partition " +
                                std::to_string(p) + " out of range");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const IndexSnapshot>> IndexSnapshot::Build(
    std::shared_ptr<const Venue> venue, std::vector<PartitionId> existing,
    std::vector<PartitionId> candidates, std::uint64_t epoch,
    const VipTreeOptions& tree_options, std::shared_ptr<const VipTree> tree) {
  if (venue == nullptr) {
    return Status::InvalidArgument("snapshot venue is null");
  }
  const std::size_t num_parts = venue->num_partitions();
  IFLS_RETURN_NOT_OK(CanonicalizeSet(&existing, num_parts, "existing set"));
  IFLS_RETURN_NOT_OK(CanonicalizeSet(&candidates, num_parts,
                                     "candidate set"));
  std::vector<PartitionId> both;
  std::set_intersection(existing.begin(), existing.end(), candidates.begin(),
                        candidates.end(), std::back_inserter(both));
  if (!both.empty()) {
    return Status::InvalidArgument(
        "existing and candidate sets intersect at partition " +
        std::to_string(both.front()));
  }
  if (tree == nullptr) {
    Result<VipTree> built = VipTree::Build(venue.get(), tree_options);
    if (!built.ok()) return built.status();
    tree = std::make_shared<const VipTree>(std::move(built).value());
  }
  // make_shared needs a public constructor; the snapshot type is small and
  // built exactly here, so plain new under a shared_ptr is fine.
  std::shared_ptr<IndexSnapshot> snap(new IndexSnapshot());
  snap->venue_ = std::move(venue);
  snap->tree_ = std::move(tree);
  snap->existing_ = std::move(existing);
  snap->candidates_ = std::move(candidates);
  snap->epoch_ = epoch;
  return std::shared_ptr<const IndexSnapshot>(std::move(snap));
}

ServingState::ServingState(std::shared_ptr<const IndexSnapshot> snap,
                           const FacilityDelta& delta, std::uint64_t version)
    : snapshot(std::move(snap)), overlay_size(delta.size()), version(version) {
  const Status valid = ValidateFacilityDelta(delta, snapshot->existing(),
                                             snapshot->candidates());
  IFLS_CHECK(valid.ok()) << valid.ToString();
  effective_existing = ComposeFacilitySet(
      snapshot->existing(), delta.added_existing, delta.removed_existing);
  effective_candidates = ComposeFacilitySet(
      snapshot->candidates(), delta.added_candidates,
      delta.removed_candidates);
}

}  // namespace ifls
