// Runtime dispatch for the min-plus kernel tiers: one immutable function
// table per compiled-in backend (kernel_table.h), an atomic pointer to the
// active one, and a choose-best ladder keyed on runtime cpuid. At first use
// the highest tier that is both compiled in (IFLS_HAVE_<TIER>,
// cmake/cpu_features.cmake) and reported by __builtin_cpu_supports wins.
// PinKernelTier moves dispatch in-process (tests and bench_kernel_micro
// use it for the tier product against the scalar reference).
//
// The selected backend is logged once at startup, published as the
// ifls_kernel_backend info metric (one series per compiled tier, active
// tier = 1) and stamped into the trace exporter's metadata block; the bench
// envelope (src/benchlib/json_report) reads ActiveKernelName() directly.

#include <atomic>
#include <mutex>
#include <string>

#include "src/common/logging.h"
#include "src/common/metrics_registry.h"
#include "src/common/trace.h"
#include "src/index/kernels/kernel_table.h"
#include "src/index/minplus_kernels.h"

namespace ifls {
namespace kernels {
namespace {

using internal::KernelTable;

const char* const kTierNames[kNumKernelTiers] = {"scalar", "avx2", "avx512"};

/// The tier's table when its translation unit was compiled in, else null.
const KernelTable* CompiledTable(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return internal::GetScalarKernelTable();
    case KernelTier::kAvx2:
#if defined(IFLS_HAVE_AVX2)
      return internal::GetAvx2KernelTable();
#else
      return nullptr;
#endif
    case KernelTier::kAvx512:
#if defined(IFLS_HAVE_AVX512F)
      return internal::GetAvx512KernelTable();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool CpuReportsTier(KernelTier tier) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  switch (tier) {
    case KernelTier::kScalar:
      return true;
    case KernelTier::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case KernelTier::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return tier == KernelTier::kScalar;
#endif
}

/// Comma-joined names of the compiled-in tiers, for the startup log line.
std::string CompiledTierList() {
  std::string out;
  for (int t = 0; t < kNumKernelTiers; ++t) {
    if (CompiledTable(static_cast<KernelTier>(t)) == nullptr) continue;
    if (!out.empty()) out += ",";
    out += kTierNames[t];
  }
  return out;
}

std::atomic<const KernelTable*>& ActiveTableSlot() {
  static std::atomic<const KernelTable*> slot{nullptr};
  return slot;
}

/// Swaps the active table and re-publishes the backend everywhere it is
/// surfaced: the ifls_kernel_backend info metric (every compiled tier gets
/// a series; exactly the active one reads 1) and the trace exporter's
/// metadata block, so Chrome traces and Prometheus scrapes both say which
/// backend produced the work they describe.
void InstallTable(const KernelTable* table) {
  ActiveTableSlot().store(table, std::memory_order_release);
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (int t = 0; t < kNumKernelTiers; ++t) {
    const KernelTier tier = static_cast<KernelTier>(t);
    if (CompiledTable(tier) == nullptr) continue;
    registry
        .GetGauge("ifls_kernel_backend",
                  std::string("tier=\"") + kTierNames[t] + "\"")
        ->Set(tier == table->tier ? 1.0 : 0.0);
  }
  TraceRecorder::Global().SetMetadata("kernel_backend", table->name);
}

/// One-time lazy resolution, shared by every public entry point: installs
/// the best supported tier and logs it exactly once.
void EnsureInitialized() {
  static std::once_flag once;
  std::call_once(once, [] {
    InstallTable(CompiledTable(BestKernelTier()));
    IFLS_LOG(INFO) << "min-plus kernel dispatch: tier="
                    << ActiveTableSlot().load(std::memory_order_acquire)->name
                    << ", compiled tiers: " << CompiledTierList();
  });
}

const KernelTable& Active() {
  const KernelTable* table =
      ActiveTableSlot().load(std::memory_order_acquire);
  if (table == nullptr) {
    EnsureInitialized();
    table = ActiveTableSlot().load(std::memory_order_acquire);
  }
  return *table;
}

}  // namespace

const char* KernelTierName(KernelTier tier) {
  const int t = static_cast<int>(tier);
  IFLS_CHECK(t >= 0 && t < kNumKernelTiers) << "bad KernelTier " << t;
  return kTierNames[t];
}

bool KernelTierCompiled(KernelTier tier) {
  return CompiledTable(tier) != nullptr;
}

bool KernelTierSupported(KernelTier tier) {
  return CompiledTable(tier) != nullptr && CpuReportsTier(tier);
}

KernelTier BestKernelTier() {
  for (int t = kNumKernelTiers - 1; t > 0; --t) {
    const KernelTier tier = static_cast<KernelTier>(t);
    if (KernelTierSupported(tier)) return tier;
  }
  return KernelTier::kScalar;
}

Status PinKernelTier(KernelTier tier) {
  const KernelTable* table = CompiledTable(tier);
  if (table == nullptr) {
    return Status::FailedPrecondition(
        "kernel tier '" + std::string(KernelTierName(tier)) +
        "' is not compiled into this binary (see cmake/cpu_features.cmake; "
        "compiled tiers: " + CompiledTierList() + ")");
  }
  if (!CpuReportsTier(tier)) {
    return Status::FailedPrecondition(
        "kernel tier '" + std::string(KernelTierName(tier)) +
        "' is compiled in but this CPU does not report the feature");
  }
  InstallTable(table);
  return Status::OK();
}

void ResetKernelTierAuto() { InstallTable(CompiledTable(BestKernelTier())); }

KernelTier ActiveKernelTier() { return Active().tier; }

const char* ActiveKernelName() { return Active().name; }

void MinPlusCompose(const double* a, const std::int32_t* rows, std::size_t nr,
                    const std::int32_t* cols, std::size_t nc, const double* m,
                    std::size_t stride, double* out) {
  Active().min_plus_compose(a, rows, nr, cols, nc, m, stride, out);
}

double MinPlusPairwise(const double* a, const double* b, std::size_t n) {
  return Active().min_plus_pairwise(a, b, n);
}

void GatherCells(const double* row, const std::int32_t* idx, std::size_t n,
                 double* out) {
  Active().gather_cells(row, idx, n, out);
}

}  // namespace kernels
}  // namespace ifls
