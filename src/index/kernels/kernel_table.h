#ifndef IFLS_INDEX_KERNELS_KERNEL_TABLE_H_
#define IFLS_INDEX_KERNELS_KERNEL_TABLE_H_

#include <cstddef>
#include <cstdint>

#include "src/index/minplus_kernels.h"

namespace ifls {
namespace kernels {
namespace internal {

/// One immutable function table per ISA tier. Each tier's translation unit
/// (minplus_<tier>.cc, compiled with that tier's per-file -m<isa> flag)
/// defines exactly one of the Get*KernelTable() factories below; the two
/// SIMD tiers build theirs from the shared body in minplus_simd_body.h.
/// dispatch.cc assembles the choose-best ladder from whichever factories
/// the build compiled in (the IFLS_HAVE_<TIER> guards from
/// cmake/cpu_features.cmake).
///
/// Every entry implements the same bit-identity contract as the scalar
/// reference in minplus_scalar.cc: left-associated sums, min returns an
/// operand. See minplus_kernels.h.
struct KernelTable {
  KernelTier tier;
  const char* name;
  void (*min_plus_compose)(const double*, const std::int32_t*, std::size_t,
                           const std::int32_t*, std::size_t, const double*,
                           std::size_t, double*);
  double (*min_plus_pairwise)(const double*, const double*, std::size_t);
  void (*gather_cells)(const double*, const std::int32_t*, std::size_t,
                       double*);
};

/// Always present: the portable reference backend.
const KernelTable* GetScalarKernelTable();

#if defined(IFLS_HAVE_AVX2)
const KernelTable* GetAvx2KernelTable();
#endif
#if defined(IFLS_HAVE_AVX512F)
const KernelTable* GetAvx512KernelTable();
#endif

}  // namespace internal
}  // namespace kernels
}  // namespace ifls

#endif  // IFLS_INDEX_KERNELS_KERNEL_TABLE_H_
