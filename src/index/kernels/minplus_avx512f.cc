// AVX-512F backend: 8-lane __m512d lane traits over the shared SIMD body
// (minplus_simd_body.h). Gathers use vgatherdpd (zmm form) over the int32
// index lists exactly as laid out in the arenas; only the F foundation
// subset is required, so the tier lights up on every AVX-512 part from
// Skylake-SP onward. This translation unit is compiled with a per-file
// -mavx512f (cmake/cpu_features.cmake) and only dispatched to when
// __builtin_cpu_supports("avx512f") holds.

#include <limits>

#include <immintrin.h>

#include "src/index/kernels/kernel_table.h"

namespace ifls {
namespace kernels {
namespace internal {
namespace {

struct Avx512Lanes {
  using Vec = __m512d;
  static constexpr std::size_t kWidth = 8;
  static Vec Set1(double v) { return _mm512_set1_pd(v); }
  static Vec Add(Vec x, Vec y) { return _mm512_add_pd(x, y); }
  // The masked forms with every lane selected are the same instructions as
  // _mm512_min_pd / _mm512_i32gather_pd, whose GCC 12 definitions pass
  // _mm512_undefined_pd() and so trip -Wmaybe-uninitialized at -O2.
  static Vec Min(Vec x, Vec y) { return _mm512_mask_min_pd(x, 0xFF, x, y); }
  static Vec LoadU(const double* p) { return _mm512_loadu_pd(p); }
  static void StoreU(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static void Store(double* p, Vec v) { _mm512_store_pd(p, v); }
  static Vec Gather(const double* base, const std::int32_t* idx) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, vidx, base,
                                    8);
  }
};

#include "src/index/kernels/minplus_simd_body.h"

constexpr KernelTable kTable =
    MakeSimdKernelTable<Avx512Lanes>(KernelTier::kAvx512, "avx512");

}  // namespace

const KernelTable* GetAvx512KernelTable() { return &kTable; }

}  // namespace internal
}  // namespace kernels
}  // namespace ifls
