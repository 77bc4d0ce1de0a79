#include "src/index/door_matrix.h"

#include <gtest/gtest.h>

#include <array>

#include "src/graph/dijkstra.h"

namespace ifls {
namespace {

// Views over local arrays, laid out the way the tree's arenas hold a node:
// sorted row and column ids plus row-major distance cells.
constexpr std::array<DoorId, 3> kRows = {2, 5, 9};
constexpr std::array<DoorId, 2> kCols = {1, 9};
constexpr std::array<double, 6> kDist = {1.5, 0.0,           // row 2
                                         4.5, kInfDistance,  // row 5
                                         7.0, 0.0};          // row 9

TEST(DoorMatrixViewTest, DefaultViewIsEmpty) {
  DoorMatrixView v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.num_rows(), 0u);
  EXPECT_EQ(v.num_cols(), 0u);
  EXPECT_EQ(v.dist_data(), nullptr);
}

TEST(DoorMatrixViewTest, IndexLookups) {
  DoorMatrixView v(kRows, kCols, kDist.data());
  EXPECT_FALSE(v.empty());
  EXPECT_EQ(v.num_rows(), 3u);
  EXPECT_EQ(v.num_cols(), 2u);
  EXPECT_EQ(v.RowIndex(5), 1);
  EXPECT_EQ(v.RowIndex(9), 2);
  EXPECT_EQ(v.RowIndex(3), -1);
  EXPECT_EQ(v.RowIndex(10), -1);
  EXPECT_EQ(v.ColIndex(1), 0);
  EXPECT_EQ(v.ColIndex(2), -1);
  EXPECT_TRUE(v.HasRow(2));
  EXPECT_FALSE(v.HasRow(1));
  EXPECT_TRUE(v.HasCol(9));
  EXPECT_FALSE(v.HasCol(5));
}

TEST(DoorMatrixViewTest, AtAndDistance) {
  DoorMatrixView v(kRows, kCols, kDist.data());
  EXPECT_EQ(v.dist_data(), kDist.data());
  EXPECT_DOUBLE_EQ(v.At(1, 0), 4.5);
  EXPECT_DOUBLE_EQ(v.At(2, 0), 7.0);
  EXPECT_EQ(v.At(1, 1), kInfDistance);
  EXPECT_DOUBLE_EQ(v.Distance(5, 1), 4.5);
  EXPECT_DOUBLE_EQ(v.Distance(2, 1), 1.5);
  EXPECT_DOUBLE_EQ(v.Distance(9, 9), 0.0);
}

}  // namespace
}  // namespace ifls
