#include "src/index/facility_index.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

class FacilityIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    venue_ = Unwrap(GenerateVenue(SmallVenueSpec()));
    tree_ = std::make_unique<VipTree>(Unwrap(VipTree::Build(&venue_)));
  }

  Venue venue_;
  std::unique_ptr<VipTree> tree_;
};

TEST_F(FacilityIndexTest, KindsAndCounts) {
  FacilityIndex index(tree_.get(), {0, 1});
  index.AddCandidates({2, 3, 4});
  EXPECT_EQ(index.num_existing(), 2);
  EXPECT_EQ(index.num_candidates(), 3);
  EXPECT_TRUE(index.IsExisting(0));
  EXPECT_TRUE(index.IsCandidate(3));
  EXPECT_FALSE(index.IsFacility(5));
  EXPECT_EQ(index.kind(1), FacilityKind::kExisting);
  EXPECT_EQ(index.kind(4), FacilityKind::kCandidate);
  EXPECT_EQ(index.kind(6), FacilityKind::kNone);
}

TEST_F(FacilityIndexTest, SubtreeCountsSumCorrectly) {
  FacilityIndex index(tree_.get(), {0, 5, 9});
  index.AddCandidates({12, 17});
  EXPECT_EQ(index.SubtreeCount(tree_->root()), 5);
  // Every facility contributes exactly once to each node on its root chain.
  for (PartitionId p : {0, 5, 9, 12, 17}) {
    for (NodeId n = tree_->LeafOf(p); n != kInvalidNode;
         n = tree_->node(n).parent) {
      EXPECT_GE(index.SubtreeCount(n), 1);
    }
  }
  // A leaf with no facilities has count zero.
  int zero_leaves = 0;
  for (std::size_t n = 0; n < tree_->num_nodes(); ++n) {
    const VipNode& node = tree_->node(static_cast<NodeId>(n));
    if (!node.is_leaf()) continue;
    bool has = false;
    for (PartitionId p : node.partitions) {
      has = has || index.IsFacility(p);
    }
    if (!has) {
      EXPECT_EQ(index.SubtreeCount(node.id), 0);
      ++zero_leaves;
    }
  }
  EXPECT_GT(zero_leaves, 0);  // venue is larger than 5 leaves
}

TEST_F(FacilityIndexTest, DuplicateRegistrationDies) {
  FacilityIndex index(tree_.get(), {0});
  EXPECT_DEATH(index.AddCandidates({0}), "registered twice");
  index.AddCandidates({1});
  EXPECT_DEATH(index.AddCandidates({1}), "registered twice");
}

TEST_F(FacilityIndexTest, OutOfRangePartitionDies) {
  FacilityIndex index(tree_.get(), {});
  EXPECT_DEATH(index.AddCandidates({static_cast<PartitionId>(
                   venue_.num_partitions())}),
               "out of range");
}

}  // namespace
}  // namespace ifls
