// Equivalence suite for the min-plus kernels: the scalar reference loops
// are the specification, and every SIMD tier (avx2 / avx512) must
// reproduce them bit for bit — EXPECT_EQ on doubles throughout, never
// EXPECT_NEAR. The tier product runs in-process over every tier this
// binary compiled in AND this CPU supports; compiled-but-unsupported tiers
// are skipped with a logged reason instead of failing, so the suite is
// green on AVX2-only hardware and on AVX-512 machines alike.

#include "src/index/minplus_kernels.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace ifls {
namespace kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every tier the running machine can actually execute, scalar first.
/// Logs (once) each compiled tier the CPU lacks, so a skip is visible in
/// the test output rather than silent.
std::vector<KernelTier> SupportedTiers() {
  static const std::vector<KernelTier> tiers = [] {
    std::vector<KernelTier> out;
    for (int t = 0; t < kNumKernelTiers; ++t) {
      const KernelTier tier = static_cast<KernelTier>(t);
      if (KernelTierSupported(tier)) {
        out.push_back(tier);
      } else if (KernelTierCompiled(tier)) {
        std::printf("[ SKIP     ] tier %s compiled in but unsupported by "
                    "this CPU; excluded from the tier product\n",
                    KernelTierName(tier));
      }
    }
    return out;
  }();
  return tiers;
}

/// Runs `fn` pinned to every supported tier and returns the results in
/// SupportedTiers() order (scalar — the reference — is always index 0).
template <typename Fn>
auto AllTiers(Fn&& fn) {
  std::vector<decltype(fn())> results;
  for (const KernelTier tier : SupportedTiers()) {
    const Status pinned = PinKernelTier(tier);
    EXPECT_TRUE(pinned.ok()) << pinned.ToString();
    if (!pinned.ok()) continue;  // already failed the test above
    EXPECT_EQ(ActiveKernelTier(), tier);
    results.push_back(fn());
  }
  ResetKernelTierAuto();
  return results;
}

/// EXPECT_EQ of every tier's result against the scalar reference (index 0).
template <typename T>
void ExpectAllTiersEqual(const std::vector<T>& results,
                         const std::string& what) {
  ASSERT_EQ(results.size(), SupportedTiers().size());
  for (std::size_t t = 1; t < results.size(); ++t) {
    EXPECT_EQ(results[0], results[t])
        << what << ": tier " << KernelTierName(SupportedTiers()[t])
        << " diverged from scalar";
  }
}

struct RandomInstance {
  std::vector<double> matrix;  // rows x stride, row-major
  std::size_t stride = 0;
  std::vector<std::int32_t> row_idx;
  std::vector<std::int32_t> col_idx;
  std::vector<double> a;  // aligned with row_idx
  std::vector<double> b;  // aligned with col_idx
};

/// Random door-matrix-shaped instance: distances in [0, 1000], a sprinkle
/// of +inf cells (disconnected components), duplicated indices (access
/// doors repeat across levels) and coarse quantization on request (exact
/// ties across lanes).
RandomInstance MakeInstance(Rng& rng, std::size_t matrix_dim, std::size_t nr,
                            std::size_t nc, bool quantized = false) {
  RandomInstance inst;
  inst.stride = matrix_dim;
  inst.matrix.resize(matrix_dim * matrix_dim);
  for (double& v : inst.matrix) {
    v = quantized ? static_cast<double>(rng.NextInt(0, 8)) * 0.5
                  : rng.NextUniform(0.0, 1000.0);
    if (rng.NextUniform(0.0, 1.0) < 0.05) v = kInf;
  }
  const auto rand_idx = [&] {
    return static_cast<std::int32_t>(
        rng.NextInt(0, static_cast<int>(matrix_dim) - 1));
  };
  inst.row_idx.resize(nr);
  inst.col_idx.resize(nc);
  for (auto& r : inst.row_idx) r = rand_idx();
  for (auto& c : inst.col_idx) c = rand_idx();
  inst.a.resize(nr);
  inst.b.resize(nc);
  for (double& v : inst.a) {
    v = quantized ? static_cast<double>(rng.NextInt(0, 4)) * 0.25
                  : rng.NextUniform(0.0, 500.0);
    if (rng.NextUniform(0.0, 1.0) < 0.05) v = kInf;
  }
  for (double& v : inst.b) {
    v = quantized ? static_cast<double>(rng.NextInt(0, 4)) * 0.25
                  : rng.NextUniform(0.0, 500.0);
  }
  return inst;
}

// Sizes straddle every lane-block boundary in the ladder (4 for avx2, 8
// for avx512): empty, tiny, each remainder class mod 8, and two or more
// full 8-lane blocks with every tail class (24..127).
const std::size_t kSizes[] = {0u,  1u,  2u,  3u,  4u,  5u,  6u,  7u,
                              8u,  9u,  13u, 16u, 17u, 24u, 31u, 32u,
                              33u, 63u, 64u, 65u, 127u};

TEST(MinPlusKernelsTest, TierLadderIsConsistent) {
  // scalar is unconditionally compiled and supported.
  EXPECT_TRUE(KernelTierCompiled(KernelTier::kScalar));
  EXPECT_TRUE(KernelTierSupported(KernelTier::kScalar));
  // Support implies compiled; the best tier is supported; auto dispatch
  // never leaves the active tier unsupported.
  for (int t = 0; t < kNumKernelTiers; ++t) {
    const KernelTier tier = static_cast<KernelTier>(t);
    if (KernelTierSupported(tier)) {
      EXPECT_TRUE(KernelTierCompiled(tier));
    }
  }
  EXPECT_TRUE(KernelTierSupported(BestKernelTier()));
  ResetKernelTierAuto();
  EXPECT_TRUE(KernelTierSupported(ActiveKernelTier()));
#if defined(IFLS_HAVE_AVX2) && defined(__x86_64__)
  // The build compiled the AVX2 backend; on any x86-64 CI runner of this
  // project AVX2 is present, so the choose-best ladder must reach it.
  EXPECT_TRUE(KernelTierSupported(KernelTier::kAvx2));
  EXPECT_GE(static_cast<int>(BestKernelTier()),
            static_cast<int>(KernelTier::kAvx2));
#endif
}

TEST(MinPlusKernelsTest, PinAndNamesRoundTrip) {
  for (const KernelTier tier : SupportedTiers()) {
    ASSERT_TRUE(PinKernelTier(tier).ok());
    EXPECT_EQ(ActiveKernelTier(), tier);
    EXPECT_STREQ(ActiveKernelName(), KernelTierName(tier));
  }
  // Auto dispatch resolves to the best tier.
  ResetKernelTierAuto();
  EXPECT_EQ(ActiveKernelTier(), BestKernelTier());
}

TEST(MinPlusKernelsTest, PinRejectsUnavailableTierAndKeepsDispatch) {
  ASSERT_TRUE(PinKernelTier(KernelTier::kScalar).ok());
  for (int t = 0; t < kNumKernelTiers; ++t) {
    const KernelTier tier = static_cast<KernelTier>(t);
    if (KernelTierSupported(tier)) continue;
    const Status pinned = PinKernelTier(tier);
    EXPECT_EQ(pinned.code(), StatusCode::kFailedPrecondition)
        << KernelTierName(tier);
    // A failed pin must not move the active table.
    EXPECT_EQ(ActiveKernelTier(), KernelTier::kScalar);
  }
  ResetKernelTierAuto();
}

TEST(MinPlusKernelsTest, ComposeBitIdenticalAcrossTiers) {
  Rng rng(20260807);
  for (const std::size_t nr : {0u, 1u, 4u, 9u}) {
    for (const std::size_t nc : kSizes) {
      const RandomInstance in = MakeInstance(rng, 48, nr, nc);
      const auto results = AllTiers([&] {
        std::vector<double> out(nc, -1.0);
        MinPlusCompose(in.a.data(), in.row_idx.data(), nr, in.col_idx.data(),
                       nc, in.matrix.data(), in.stride, out.data());
        return out;
      });
      ExpectAllTiersEqual(results, "compose nr=" + std::to_string(nr) +
                                       " nc=" + std::to_string(nc));
      if (nr == 0) {
        for (const double v : results[0]) EXPECT_EQ(v, kInf);
      }
    }
  }
}

TEST(MinPlusKernelsTest, GatherFamilyBitIdenticalAcrossTiers) {
  Rng rng(20260808);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 4; ++trial) {
      const RandomInstance in =
          MakeInstance(rng, 128, n, n, /*quantized=*/trial % 2 == 1);
      const double* row = in.matrix.data();  // any row works
      const std::string suffix = " n=" + std::to_string(n);
      ExpectAllTiersEqual(AllTiers([&] {
        return MinPlusPairwise(in.a.data(), in.b.data(), n);
      }), "pairwise" + suffix);
      ExpectAllTiersEqual(AllTiers([&] {
        std::vector<double> out(n, -1.0);
        GatherCells(row, in.col_idx.data(), n, out.data());
        return out;
      }), "gather_cells" + suffix);
    }
  }
}

TEST(MinPlusKernelsTest, InfinityRowsNeverBeatFiniteCandidates) {
  // The door-set composer folds unreachable rows (a[i] == inf) through the
  // matrix without skipping them; this is the property that makes that safe.
  const std::vector<double> a = {kInf, 2.0};
  const std::vector<double> b = {1.0, kInf};
  const std::vector<std::int32_t> rows = {0, 1};
  const std::vector<std::int32_t> cols = {0, 1};
  const std::vector<double> m = {0.5, kInf, 1.5, 2.5};  // 2x2, stride 2
  const auto results = AllTiers([&] {
    std::vector<double> u(2);
    MinPlusCompose(a.data(), rows.data(), 2, cols.data(), 2, m.data(), 2,
                   u.data());
    return MinPlusPairwise(u.data(), b.data(), 2);
  });
  ExpectAllTiersEqual(results, "inf-compose");
  EXPECT_EQ(results[0], (2.0 + 1.5) + 1.0);
}

}  // namespace
}  // namespace kernels
}  // namespace ifls
