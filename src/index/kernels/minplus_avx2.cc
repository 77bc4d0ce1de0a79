// AVX2 backend: 4-lane __m256d lane traits over the shared SIMD body
// (minplus_simd_body.h). Gathers use vgatherdpd over the int32 index lists
// exactly as laid out in the arenas. This translation unit is compiled with
// a per-file -mavx2 (cmake/cpu_features.cmake) and only dispatched to when
// __builtin_cpu_supports("avx2") holds.

#include <limits>

#include <immintrin.h>

#include "src/index/kernels/kernel_table.h"

namespace ifls {
namespace kernels {
namespace internal {
namespace {

struct Avx2Lanes {
  using Vec = __m256d;
  static constexpr std::size_t kWidth = 4;
  static Vec Set1(double v) { return _mm256_set1_pd(v); }
  static Vec Add(Vec x, Vec y) { return _mm256_add_pd(x, y); }
  static Vec Min(Vec x, Vec y) { return _mm256_min_pd(x, y); }
  static Vec LoadU(const double* p) { return _mm256_loadu_pd(p); }
  static void StoreU(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static void Store(double* p, Vec v) { _mm256_store_pd(p, v); }
  static Vec Gather(const double* base, const std::int32_t* idx) {
    const __m128i vidx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    // The masked form with every lane selected is the same vgatherdpd as
    // _mm256_i32gather_pd, whose GCC 12 definition passes
    // _mm256_undefined_pd() and so trips -Wmaybe-uninitialized at -O2.
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, vidx, all, 8);
  }
};

#include "src/index/kernels/minplus_simd_body.h"

constexpr KernelTable kTable =
    MakeSimdKernelTable<Avx2Lanes>(KernelTier::kAvx2, "avx2");

}  // namespace

const KernelTable* GetAvx2KernelTable() { return &kTable; }

}  // namespace internal
}  // namespace kernels
}  // namespace ifls
