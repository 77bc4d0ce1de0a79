#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace e2ebench {

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// p99 is meaningful only with at least ten samples beyond it, i.e. at
/// least 1000 samples; fewer is refused with FailedPrecondition.
ifls::Result<double> P99(const std::vector<double>& samples);

/// The highest quantile of the ladder {0.99, 0.98, 0.95, 0.90, 0.80, 0.50}
/// that leaves at least ten of `n` samples beyond it (0.50 when none does).
double SupportedTailQuantile(std::size_t n);

/// "p99", "p95", ... for a quantile of the ladder above.
std::string QuantileLabel(double q);

/// Open-loop arrival offsets (seconds, ascending) of `count` requests over
/// `span_seconds`: a Poisson process conditioned on `count` arrivals in the
/// span, i.e. sorted uniform draws. The same seed gives the same schedule,
/// and every schedule ends inside the span, so the offered rate is exactly
/// count / span on every seed.
std::vector<double> PoissonSchedule(std::uint64_t seed, std::size_t count,
                                    double span_seconds);

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular), drawn by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);
  std::size_t Sample(ifls::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Share of accesses in `sequence` that miss an LRU cache holding
/// `capacity` items (cold misses included).
double LruMissShare(const std::vector<std::size_t>& sequence,
                    std::size_t capacity);

/// Returns freed heap to the OS and resets this process's peak resident set
/// (VmHWM) to its current resident set, so that PeakRssMb() covers only what
/// stays resident or is allocated from here on.
ifls::Status ResetPeakRss();

/// Peak resident set size of this process in MiB (VmHWM) since the last
/// ResetPeakRss().
ifls::Result<double> PeakRssMb();

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
