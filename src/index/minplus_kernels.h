#ifndef IFLS_INDEX_MINPLUS_KERNELS_H_
#define IFLS_INDEX_MINPLUS_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "src/common/status.h"

namespace ifls {
namespace kernels {

/// Every IFLS objective bottoms out in min-plus reductions over VIP-tree
/// door matrices, executed millions of times per workload directly on the
/// arena-resident matrix spans: a row folded through a matrix
/// (MinPlusCompose), then reduced against a second row (MinPlusPairwise),
/// with rows gathered by index map (GatherCells). This family implements
/// those three as blocked, contiguous kernels over three ISA tiers
/// (src/index/kernels/):
///
///  * scalar    — portable reference, always compiled, always available;
///  * avx2      — 4-lane __m256d blocks with vgatherdpd (-mavx2);
///  * avx512    — 8-lane __m512d blocks (-mavx512f).
///
/// The two SIMD tiers are one algorithm (minplus_simd_body.h) instantiated
/// over per-ISA lane traits, each in its own translation unit compiled with
/// its own per-file ISA flag (cmake/cpu_features.cmake; no global -m<isa>,
/// so the rest of the binary keeps the baseline ISA and still runs
/// anywhere). At first use a choose-best table keyed on runtime cpuid
/// (__builtin_cpu_supports) selects the highest compiled-in tier this CPU
/// reports. Only PinKernelTier moves dispatch off that choice.
///
/// Bit-identity contract: every tier produces bit-identical doubles. The
/// candidate terms are the exact same IEEE expressions — left-associated
/// sums like (a[i] + m) + b[j], no FMA contraction, no reassociation — and
/// the reduction operator `min` always returns one of its operands, so the
/// reduction order (scalar loop vs 4/8-lane tree) cannot change a single
/// bit. tests/minplus_kernels_test.cc locks this in across the full tier
/// product under ASan.

/// The ISA ladder, ordered: a higher tier is never slower to select. Values
/// are dense and stable (bench reports and the tier-product tests iterate
/// [0, kNumKernelTiers)).
enum class KernelTier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};
inline constexpr int kNumKernelTiers = 3;

/// Stable lower-case tier name: "scalar", "avx2", "avx512". These are
/// exactly the ifls_kernel_backend metric labels, the ledger's tier label
/// and the bench-report kernel_dispatch strings.
const char* KernelTierName(KernelTier tier);

/// True when the tier's backend is compiled into this binary (its
/// IFLS_HAVE_<TIER> translation unit was built).
bool KernelTierCompiled(KernelTier tier);

/// True when the tier is compiled in AND the running CPU reports the
/// feature. kScalar is always supported.
bool KernelTierSupported(KernelTier tier);

/// The highest supported tier — what auto-dispatch selects.
KernelTier BestKernelTier();

/// Pins dispatch to exactly `tier`. kFailedPrecondition when the tier is
/// not compiled in or the CPU lacks it; on error the active tier is
/// unchanged. Thread-safe (atomic table swap); in-flight kernel calls
/// finish on the table they started with.
Status PinKernelTier(KernelTier tier);

/// Restores auto dispatch: the best supported tier. Tests and benches that
/// pinned a tier call this to hand dispatch back.
void ResetKernelTierAuto();

/// The tier the dispatch table currently points at.
KernelTier ActiveKernelTier();

/// KernelTierName(ActiveKernelTier()) — for bench reports and logs.
const char* ActiveKernelName();

// ---------------------------------------------------------------------------
// Kernels. All matrices are row-major with a fixed row stride; `rows`/`cols`
// are int32 index lists selecting matrix rows/columns (the arena layout's
// access-door index maps are exactly that). Empty inputs reduce to
// +infinity / are no-ops.
// ---------------------------------------------------------------------------

/// Fold distances through a matrix (IP-mode chain composition):
///   out[j] = min over i of a[i] + m[rows[i]*stride + cols[j]].
void MinPlusCompose(const double* a, const std::int32_t* rows, std::size_t nr,
                    const std::int32_t* cols, std::size_t nc, const double* m,
                    std::size_t stride, double* out);

/// Pairwise reduce (a composed row against a target's row, or many clients
/// against one candidate):
///   min over k of a[k] + b[k].
double MinPlusPairwise(const double* a, const double* b, std::size_t n);

/// out[i] = row[idx[i]] (row extraction by access-door index map).
void GatherCells(const double* row, const std::int32_t* idx, std::size_t n,
                 double* out);

}  // namespace kernels
}  // namespace ifls

#endif  // IFLS_INDEX_MINPLUS_KERNELS_H_
