#ifndef IFLS_INDEX_DOOR_MATRIX_H_
#define IFLS_INDEX_DOOR_MATRIX_H_

#include <algorithm>
#include <cstddef>
#include <span>

#include "src/common/logging.h"
#include "src/indoor/types.h"

namespace ifls {

/// Non-owning dense distance matrix between two (sorted) door sets. This is
/// how VIP-tree nodes expose their matrices under the flat layout: the
/// row/col id lists and the row-major payload all live in tree-owned arena
/// buffers, and the view just carries spans/pointers into them — copyable,
/// trivially destructible, and stable across tree moves (the arenas' heap
/// blocks never move). Leaf nodes view all incident doors, internal nodes
/// their children's access doors, and (VIP only) leaves additionally view
/// one matrix per ancestor (rows = leaf doors, cols = ancestor access doors).
class DoorMatrixView {
 public:
  DoorMatrixView() = default;

  /// `rows`/`cols` must be sorted ascending and duplicate-free. `dist` must
  /// point at rows.size()*cols.size() row-major values.
  DoorMatrixView(std::span<const DoorId> rows, std::span<const DoorId> cols,
                 const double* dist)
      : rows_(rows), cols_(cols), dist_(dist) {}

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return cols_.size(); }
  bool empty() const { return rows_.empty() || cols_.empty(); }

  std::span<const DoorId> rows() const { return rows_; }
  std::span<const DoorId> cols() const { return cols_; }

  /// Raw payload pointer (arena cell addressing; null when default-built).
  const double* dist_data() const { return dist_; }

  /// Index of `d` among rows, or -1.
  int RowIndex(DoorId d) const { return IndexOf(rows_, d); }
  int ColIndex(DoorId d) const { return IndexOf(cols_, d); }

  bool HasRow(DoorId d) const { return RowIndex(d) >= 0; }
  bool HasCol(DoorId d) const { return ColIndex(d) >= 0; }

  double At(int row, int col) const {
    return dist_[static_cast<std::size_t>(row) * cols_.size() +
                 static_cast<std::size_t>(col)];
  }

  /// Distance between doors by id. Precondition: both present.
  double Distance(DoorId row, DoorId col) const {
    const int r = RowIndex(row);
    const int c = ColIndex(col);
    IFLS_DCHECK(r >= 0 && c >= 0);
    return At(r, c);
  }

 private:
  static int IndexOf(std::span<const DoorId> v, DoorId d) {
    auto it = std::lower_bound(v.begin(), v.end(), d);
    if (it == v.end() || *it != d) return -1;
    return static_cast<int>(it - v.begin());
  }

  std::span<const DoorId> rows_;
  std::span<const DoorId> cols_;
  const double* dist_ = nullptr;
};

}  // namespace ifls

#endif  // IFLS_INDEX_DOOR_MATRIX_H_
