// Per-kernel microbench over the full ISA tier ladder: every min-plus
// kernel is timed pinned to each tier this binary compiled in and this CPU
// supports (scalar / avx2 / avx512), across a size sweep that straddles
// the 4/8-lane block boundaries. Reports ns/op curves and
// speedup-vs-scalar per (kernel, size, tier), plus two summary gates:
//
//   * bit_identical — every tier reproduced the scalar reference exactly
//     on randomized instances (exit 1 on violation; this is the kernel
//     contract, never a tolerance);
//   * best_not_slower_than_avx2 — the choose-best tier's geomean over the
//     sweep is within 10% of the AVX2 tier's (the PR 4 baseline), so a
//     ladder extension can't silently regress the headline speedup. Noisy
//     runners make a hard perf exit flaky, so this one reports + warns.
//
// Writes BENCH_kernel_micro.json (shared schema, src/benchlib).
// Scale via IFLS_BENCH_SCALE=smoke|default|full.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/benchlib/harness.h"
#include "src/benchlib/json_report.h"
#include "src/benchlib/table.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/index/minplus_kernels.h"

namespace ifls {
namespace {

volatile double g_sink = 0.0;

struct KernelInstance {
  std::vector<double> matrix;
  std::size_t stride = 0;
  std::vector<std::int32_t> rows;
  std::vector<std::int32_t> cols;
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> out;
};

KernelInstance MakeKernelInstance(Rng* rng, std::size_t dim, std::size_t n) {
  KernelInstance inst;
  inst.stride = dim;
  inst.matrix.resize(dim * dim);
  for (double& v : inst.matrix) v = rng->NextUniform(0.0, 1000.0);
  inst.rows.resize(n);
  inst.cols.resize(n);
  for (auto& r : inst.rows) {
    r = static_cast<std::int32_t>(rng->NextInt(0, static_cast<int>(dim) - 1));
  }
  for (auto& c : inst.cols) {
    c = static_cast<std::int32_t>(rng->NextInt(0, static_cast<int>(dim) - 1));
  }
  inst.a.resize(n);
  inst.b.resize(n);
  for (double& v : inst.a) v = rng->NextUniform(0.0, 500.0);
  for (double& v : inst.b) v = rng->NextUniform(0.0, 500.0);
  inst.out.resize(std::max<std::size_t>(n, 1));
  return inst;
}

/// ns per call of `fn`: best (minimum) of `reps` timed blocks of `iters`
/// calls each, after one warmup call. The min discards scheduler blips —
/// a single preempted block otherwise poisons a whole curve point.
template <typename Fn>
double TimeNs(int reps, int iters, Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, watch.ElapsedSeconds() * 1e9 / iters);
  }
  return best;
}

std::vector<kernels::KernelTier> SupportedTiers() {
  std::vector<kernels::KernelTier> tiers;
  for (int t = 0; t < kernels::kNumKernelTiers; ++t) {
    const auto tier = static_cast<kernels::KernelTier>(t);
    if (kernels::KernelTierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// One (kernel, size) point: ns/op per measured tier, keyed by tier name.
struct CurvePoint {
  std::string kernel;
  std::size_t size = 0;
  std::map<std::string, double> ns_per_op;  // tier name -> ns
};

/// The three kernels, each as a runner over a rotating instance pool. The
/// runner must consume its result through g_sink so no timed call is dead.
struct KernelCase {
  const char* name;
  /// Runs the kernel once on pool[which % pool.size()].
  void (*run)(std::vector<KernelInstance>& pool, int which);
  /// Returns a comparable fingerprint for the differential check (the full
  /// result, not a hash — EXPECT-style exact equality on every lane).
  std::vector<double> (*probe)(KernelInstance& in);
};

const KernelCase kKernelCases[] = {
    {"compose",
     [](std::vector<KernelInstance>& pool, int which) {
       KernelInstance& in = pool[static_cast<std::size_t>(which) % pool.size()];
       kernels::MinPlusCompose(in.a.data(), in.rows.data(), in.rows.size(),
                               in.cols.data(), in.cols.size(),
                               in.matrix.data(), in.stride, in.out.data());
       g_sink = g_sink + in.out[0];
     },
     [](KernelInstance& in) {
       std::vector<double> out(in.cols.size(), -1.0);
       kernels::MinPlusCompose(in.a.data(), in.rows.data(), in.rows.size(),
                               in.cols.data(), in.cols.size(),
                               in.matrix.data(), in.stride, out.data());
       return out;
     }},
    {"pairwise",
     [](std::vector<KernelInstance>& pool, int which) {
       KernelInstance& in = pool[static_cast<std::size_t>(which) % pool.size()];
       g_sink = g_sink + kernels::MinPlusPairwise(in.a.data(), in.b.data(),
                                                  in.a.size());
     },
     [](KernelInstance& in) {
       return std::vector<double>{
           kernels::MinPlusPairwise(in.a.data(), in.b.data(), in.a.size())};
     }},
    {"gather_cells",
     [](std::vector<KernelInstance>& pool, int which) {
       KernelInstance& in = pool[static_cast<std::size_t>(which) % pool.size()];
       kernels::GatherCells(in.matrix.data(), in.cols.data(), in.cols.size(),
                            in.out.data());
       g_sink = g_sink + in.out[0];
     },
     [](KernelInstance& in) {
       std::vector<double> out(in.cols.size(), -1.0);
       kernels::GatherCells(in.matrix.data(), in.cols.data(), in.cols.size(),
                            out.data());
       return out;
     }},
};

int Main() {
  const BenchScale scale = BenchScale::FromEnv();
  const std::vector<kernels::KernelTier> tiers = SupportedTiers();
  const kernels::KernelTier best = kernels::BestKernelTier();

  std::string tier_list;
  for (const kernels::KernelTier t : tiers) {
    if (!tier_list.empty()) tier_list += ", ";
    tier_list += kernels::KernelTierName(t);
  }
  std::printf("# per-kernel tier microbench (scale=%s, tiers: %s, best=%s)\n\n",
              scale.name.c_str(), tier_list.c_str(),
              kernels::KernelTierName(best));

  // Sizes straddle every lane-block boundary of the ladder; smoke keeps two
  // points so the CI job stays a smoke test.
  const std::vector<std::size_t> sizes =
      scale.name == "smoke"
          ? std::vector<std::size_t>{8, 32}
          : std::vector<std::size_t>{2, 4, 7, 8, 16, 32, 33, 64, 128};
  const int base_iters = scale.name == "smoke"
                             ? 5000
                             : (scale.name == "full" ? 200000 : 50000);
  const int reps = scale.name == "smoke" ? 2 : 3;

  // --- Bit-identity differential across the ladder (randomized instances,
  // exact equality). Cheap, and it guards the numbers below: a tier that
  // cheats on the contract must not get to advertise a speedup.
  bool bit_identical = true;
  {
    Rng rng(20260808);
    for (const std::size_t n : sizes) {
      for (int trial = 0; trial < 8; ++trial) {
        KernelInstance in = MakeKernelInstance(&rng, 256, n);
        for (const KernelCase& kc : kKernelCases) {
          IFLS_CHECK_OK(kernels::PinKernelTier(kernels::KernelTier::kScalar));
          const std::vector<double> want = kc.probe(in);
          for (const kernels::KernelTier tier : tiers) {
            IFLS_CHECK_OK(kernels::PinKernelTier(tier));
            if (kc.probe(in) != want) {
              bit_identical = false;
              std::fprintf(stderr, "FATAL: %s diverged from scalar at n=%zu "
                                   "under tier %s\n",
                           kc.name, n, kernels::KernelTierName(tier));
            }
          }
        }
      }
    }
  }

  // --- The ns/op sweep: pool of rotated instances per size so no single
  // index layout stays hot in L1.
  std::vector<CurvePoint> curves;
  Rng rng(42);
  for (const KernelCase& kc : kKernelCases) {
    for (const std::size_t n : sizes) {
      CurvePoint point;
      point.kernel = kc.name;
      point.size = n;
      constexpr int kPool = 8;
      std::vector<KernelInstance> pool;
      for (int i = 0; i < kPool; ++i) {
        pool.push_back(MakeKernelInstance(&rng, 256, n));
      }
      // Keep total touched elements roughly constant across sizes.
      const int iters = std::max(
          1000, static_cast<int>(base_iters / std::max<std::size_t>(n / 8, 1)));
      for (const kernels::KernelTier tier : tiers) {
        IFLS_CHECK_OK(kernels::PinKernelTier(tier));
        int which = 0;
        point.ns_per_op[kernels::KernelTierName(tier)] =
            TimeNs(reps, iters, [&] { kc.run(pool, which++); });
      }
      curves.push_back(point);
    }
  }
  kernels::ResetKernelTierAuto();

  // --- Console table + the best-vs-avx2 regression gate.
  std::vector<std::string> header = {"kernel", "n"};
  for (const kernels::KernelTier t : tiers) {
    header.push_back(std::string(kernels::KernelTierName(t)) + " ns");
  }
  header.push_back("best speedup");
  TextTable table(header);
  double best_log_sum = 0.0, avx2_log_sum = 0.0;
  int avx2_points = 0;
  const std::string best_name = kernels::KernelTierName(best);
  for (const CurvePoint& p : curves) {
    const double scalar_ns = p.ns_per_op.at("scalar");
    const double best_ns = p.ns_per_op.at(best_name);
    std::vector<std::string> row = {p.kernel, TextTable::Int(
                                                  static_cast<int>(p.size))};
    for (const kernels::KernelTier t : tiers) {
      row.push_back(TextTable::Num(p.ns_per_op.at(kernels::KernelTierName(t))));
    }
    row.push_back(TextTable::Num(best_ns > 0.0 ? scalar_ns / best_ns : 0.0));
    table.AddRow(row);
    if (best_ns > 0.0) best_log_sum += std::log(scalar_ns / best_ns);
    const auto avx2_it = p.ns_per_op.find("avx2");
    if (avx2_it != p.ns_per_op.end() && avx2_it->second > 0.0) {
      avx2_log_sum += std::log(scalar_ns / avx2_it->second);
      ++avx2_points;
    }
  }
  table.Print(&std::cout);

  const double best_geomean =
      curves.empty() ? 0.0
                     : std::exp(best_log_sum / static_cast<double>(
                                                   curves.size()));
  const double avx2_geomean =
      avx2_points == 0
          ? 0.0
          : std::exp(avx2_log_sum / static_cast<double>(avx2_points));
  // PR 4 shipped the AVX2 backend as the headline speedup; the choose-best
  // ladder must keep at least that (10% tolerance for runner noise).
  const bool best_not_slower =
      avx2_points == 0 || best_geomean >= avx2_geomean * 0.9;
  std::printf("\nbest-tier geomean speedup over scalar: %.2fx "
              "(avx2 baseline: %.2fx)\n",
              best_geomean, avx2_geomean);
  if (!best_not_slower) {
    std::fprintf(stderr, "WARNING: choose-best tier (%s) is slower than the "
                         "avx2 baseline on this sweep\n",
                 best_name.c_str());
  }

  const Status written = WriteBenchReport("kernel_micro", [&](JsonWriter& w) {
    w.Field("scale", scale.name);
    w.Field("best_tier", best_name);
    w.Key("tiers_measured");
    w.BeginArray();
    for (const kernels::KernelTier t : tiers) {
      w.Value(kernels::KernelTierName(t));
    }
    w.EndArray();
    w.Key("curves");
    w.BeginArray();
    for (const CurvePoint& p : curves) {
      w.BeginObject();
      w.Field("kernel", p.kernel);
      w.Field("size", static_cast<std::int64_t>(p.size));
      w.Key("ns_per_op");
      w.BeginObject();
      for (const auto& [tier, ns] : p.ns_per_op) w.Field(tier, ns);
      w.EndObject();
      w.Key("speedup_vs_scalar");
      w.BeginObject();
      const double scalar_ns = p.ns_per_op.at("scalar");
      for (const auto& [tier, ns] : p.ns_per_op) {
        w.Field(tier, ns > 0.0 ? scalar_ns / ns : 0.0);
      }
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.Field("best_geomean_speedup", best_geomean);
    w.Field("avx2_geomean_speedup", avx2_geomean);
    w.Field("best_not_slower_than_avx2", best_not_slower);
    w.Field("bit_identical", bit_identical);
  });
  IFLS_CHECK(written.ok()) << written.ToString();
  std::cerr << "wrote " << BenchReportPath("kernel_micro") << "\n";

  return bit_identical ? 0 : 1;
}

}  // namespace
}  // namespace ifls

int main() { return ifls::Main(); }
