#include "e2ebench/src/stats.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <list>
#include <unordered_map>

namespace e2ebench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

ifls::Result<double> P99(const std::vector<double>& samples) {
  if (samples.size() < 1000) {
    return ifls::Status::FailedPrecondition(
        "p99 needs >= 1000 samples (10 beyond it), got " +
        std::to_string(samples.size()));
  }
  return Percentile(samples, 0.99);
}

double SupportedTailQuantile(std::size_t n) {
  for (double q : {0.99, 0.98, 0.95, 0.90, 0.80}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

std::string QuantileLabel(double q) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%d", static_cast<int>(std::lround(q * 100)));
  return buf;
}

std::vector<double> PoissonSchedule(std::uint64_t seed, std::size_t count,
                                    double span_seconds) {
  ifls::Rng rng(seed);
  std::vector<double> at(count);
  for (double& t : at) t = rng.NextDouble() * span_seconds;
  std::sort(at.begin(), at.end());
  return at;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) : cdf_(n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Sample(ifls::Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

double LruMissShare(const std::vector<std::size_t>& sequence,
                    std::size_t capacity) {
  if (sequence.empty()) return 0.0;
  std::list<std::size_t> order;  // front = most recent
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> where;
  std::size_t misses = 0;
  for (std::size_t item : sequence) {
    const auto it = where.find(item);
    if (it != where.end()) {
      order.erase(it->second);
    } else {
      ++misses;
      if (order.size() == capacity) {
        where.erase(order.back());
        order.pop_back();
      }
    }
    order.push_front(item);
    where[item] = order.begin();
  }
  return static_cast<double>(misses) / static_cast<double>(sequence.size());
}

ifls::Status ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) {
    return ifls::Status::Internal("cannot reset the peak RSS via clear_refs");
  }
  return ifls::Status::OK();
}

ifls::Result<double> PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long kib = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kib) == 1) {
      return static_cast<double>(kib) / 1024.0;  // KiB -> MiB
    }
  }
  return ifls::Status::Internal("no VmHWM in /proc/self/status");
}

}  // namespace e2ebench
