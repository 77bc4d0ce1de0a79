// Portable scalar reference backend. These loops ARE the specification:
// every SIMD tier must reproduce them bit for bit (same left-associated
// sums, min picks an operand). Compiled
// with the project's baseline flags — no ISA extensions — so this table is
// runnable on any CPU the binary loads on.

#include <limits>

#include "src/index/kernels/kernel_table.h"

namespace ifls {
namespace kernels {
namespace internal {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void MinPlusCompose(const double* a, const std::int32_t* rows, std::size_t nr,
                    const std::int32_t* cols, std::size_t nc, const double* m,
                    std::size_t stride, double* out) {
  for (std::size_t j = 0; j < nc; ++j) out[j] = kInf;
  for (std::size_t i = 0; i < nr; ++i) {
    const double ai = a[i];
    const double* row = m + static_cast<std::size_t>(rows[i]) * stride;
    for (std::size_t j = 0; j < nc; ++j) {
      const double cand = ai + row[cols[j]];
      if (cand < out[j]) out[j] = cand;
    }
  }
}

double MinPlusPairwise(const double* a, const double* b, std::size_t n) {
  double best = kInf;
  for (std::size_t k = 0; k < n; ++k) {
    const double cand = a[k] + b[k];
    if (cand < best) best = cand;
  }
  return best;
}

void GatherCells(const double* row, const std::int32_t* idx, std::size_t n,
                 double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = row[idx[i]];
}

constexpr KernelTable kTable = {KernelTier::kScalar, "scalar", MinPlusCompose,
                                 MinPlusPairwise, GatherCells};

}  // namespace

const KernelTable* GetScalarKernelTable() { return &kTable; }

}  // namespace internal
}  // namespace kernels
}  // namespace ifls
