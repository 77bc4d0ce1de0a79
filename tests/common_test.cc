#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/memory_tracker.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/versioned.h"

namespace ifls {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");

  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "IOError");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chain(int x) {
  IFLS_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_TRUE(Chain(-1).IsInvalidArgument());
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.value(), 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange());
}

TEST(ResultTest, ValueOrReturnsAlternative) {
  EXPECT_EQ(Result<int>(Status::NotFound("x")).ValueOr(7), 7);
  EXPECT_EQ(Result<int>(3).ValueOr(7), 3);
}

TEST(ResultTest, ConstructingFromOkStatusBecomesInternalError) {
  Result<int> r{Status::OK()};
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

Result<int> UseAssignOrReturn(int x) {
  IFLS_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(UseAssignOrReturn(4).value(), 5);
  EXPECT_TRUE(UseAssignOrReturn(0).status().IsOutOfRange());
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoundedIsUniformish) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.15);
  }
}

TEST(RngTest, NextIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndComplete) {
  Rng rng(17);
  const auto sample = rng.SampleWithoutReplacement(20, 20);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 19u);

  const auto partial = rng.SampleWithoutReplacement(100, 5);
  EXPECT_EQ(partial.size(), 5u);
  EXPECT_EQ(std::set<std::size_t>(partial.begin(), partial.end()).size(), 5u);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

// -------------------------------------------------------- MemoryTracker

TEST(MemoryTrackerTest, TracksPeak) {
  MemoryTracker t;
  t.Charge(100);
  t.Charge(200);
  t.Release(150);
  t.Charge(10);
  EXPECT_EQ(t.current_bytes(), 160);
  EXPECT_EQ(t.peak_bytes(), 300);
  t.Reset();
  EXPECT_EQ(t.current_bytes(), 0);
  EXPECT_EQ(t.peak_bytes(), 0);
}

TEST(MemoryTrackerTest, MappedBytesAreTrackedApartFromHeap) {
  // Mapped (mmap-backed) bytes must not inflate the heap figures: eviction
  // budgets reason about resident heap, and dropping a mapping releases no
  // heap. They get their own gauge instead.
  MemoryTracker t;
  t.Charge(100);
  t.ChargeMapped(4096);
  EXPECT_EQ(t.current_bytes(), 100);
  EXPECT_EQ(t.peak_bytes(), 100);
  EXPECT_EQ(t.mapped_bytes(), 4096);
  t.ReleaseMapped(4096);
  EXPECT_EQ(t.mapped_bytes(), 0);
  EXPECT_EQ(t.peak_bytes(), 100);
  t.ChargeMapped(512);
  t.Reset();
  EXPECT_EQ(t.mapped_bytes(), 0);
}

TEST(MemoryTrackerTest, ScopedPeakIsolatesScopeHighWater) {
  MemoryTracker t;
  t.Charge(500);
  t.Release(400);  // current 100, peak 500
  {
    MemoryTracker::ScopedPeak scope(&t);
    // The scope starts from the current held bytes, not the old peak.
    EXPECT_EQ(scope.scope_peak_bytes(), 100);
    t.Charge(150);
    t.Release(150);
    EXPECT_EQ(scope.scope_peak_bytes(), 250);
  }
  // Outer peak restored: the scope never exceeded the pre-scope high water.
  EXPECT_EQ(t.peak_bytes(), 500);
  EXPECT_EQ(t.current_bytes(), 100);
}

TEST(MemoryTrackerTest, ScopedPeakPropagatesLargerScopePeak) {
  MemoryTracker t;
  t.Charge(100);  // current 100, peak 100
  {
    MemoryTracker::ScopedPeak scope(&t);
    t.Charge(900);
    t.Release(900);
    EXPECT_EQ(scope.scope_peak_bytes(), 1000);
  }
  // The scope's high water beat the outer peak and survives the scope.
  EXPECT_EQ(t.peak_bytes(), 1000);
}

TEST(MemoryTrackerTest, ScopedPeakNests) {
  MemoryTracker t;
  t.Charge(50);
  {
    MemoryTracker::ScopedPeak outer(&t);
    t.Charge(100);  // outer scope peak 150
    {
      MemoryTracker::ScopedPeak inner(&t);
      EXPECT_EQ(inner.scope_peak_bytes(), 150);
      t.Charge(10);
      t.Release(10);
      EXPECT_EQ(inner.scope_peak_bytes(), 160);
    }
    t.Release(100);
    EXPECT_EQ(outer.scope_peak_bytes(), 160);
  }
  EXPECT_EQ(t.peak_bytes(), 160);
}

TEST(MemoryTrackerTest, ScopedTrackingInstallsAndRestores) {
  EXPECT_EQ(ActiveMemoryTracker(), nullptr);
  MemoryTracker outer, inner;
  {
    ScopedMemoryTracking s1(&outer);
    EXPECT_EQ(ActiveMemoryTracker(), &outer);
    {
      ScopedMemoryTracking s2(&inner);
      EXPECT_EQ(ActiveMemoryTracker(), &inner);
    }
    EXPECT_EQ(ActiveMemoryTracker(), &outer);
  }
  EXPECT_EQ(ActiveMemoryTracker(), nullptr);
}

TEST(MemoryTrackerTest, TrackingAllocatorChargesActiveTracker) {
  MemoryTracker t;
  {
    ScopedMemoryTracking scope(&t);
    std::vector<int, TrackingAllocator<int>> v;
    v.reserve(1024);
    EXPECT_GE(t.peak_bytes(),
              static_cast<std::int64_t>(1024 * sizeof(int)));
  }
  // Vector destroyed inside the scope: everything released.
  EXPECT_EQ(t.current_bytes(), 0);
}

TEST(MemoryTrackerTest, AllocatorWithoutScopeIsUntracked) {
  std::vector<int, TrackingAllocator<int>> v;
  v.resize(64);  // must not crash with no active tracker
  EXPECT_EQ(v.size(), 64u);
}

// --------------------------------------------------------------- Logging

TEST(LoggingTest, LevelRoundTrips) {
  const LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(old);
}

TEST(LoggingTest, CheckPassesOnTrueCondition) {
  IFLS_CHECK(1 + 1 == 2) << "never printed";
  SUCCEED();
}

TEST(LoggingDeathTest, CheckAbortsOnFalseCondition) {
  EXPECT_DEATH({ IFLS_CHECK(false) << "boom"; }, "Check failed");
}

// ------------------------------------------------------ LatencyHistogram

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.MeanSeconds(), 0.0);
  EXPECT_EQ(h.PercentileSeconds(0.5), 0.0);
  EXPECT_EQ(h.PercentileSeconds(0.99), 0.0);
}

TEST(LatencyHistogramTest, PercentilesReturnBucketUpperBounds) {
  LatencyHistogram h;
  // 90 samples at 1us (bucket [1,2)us -> bound 2us) and 10 at 1000us
  // (bucket [512,1024)us -> bound 1024us).
  for (int i = 0; i < 90; ++i) h.Record(1e-6);
  for (int i = 0; i < 10; ++i) h.Record(1000e-6);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(0.5), 2e-6);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(0.9), 2e-6);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(0.99), 1024e-6);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(1.0), 1024e-6);
  EXPECT_NEAR(h.MeanSeconds(), 100.9e-6, 1e-12);
  EXPECT_NEAR(h.total_seconds(), 100.0 * 100.9e-6, 1e-10);
  EXPECT_FALSE(h.ToString().empty());
}

TEST(LatencyHistogramTest, SubMicrosecondAndGarbageSamplesLandInBucketZero) {
  LatencyHistogram h;
  h.Record(1e-9);
  h.Record(-5.0);  // clock glitch: clamped, not UB
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(0.5), 2e-6);  // bucket 0 upper bound
}

TEST(LatencyHistogramTest, ResetClearsEverything) {
  LatencyHistogram h;
  h.Record(5e-6);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.PercentileSeconds(0.99), 0.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(3e-6);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(0.5), 4e-6);  // [2,4)us bucket
}

// ----------------------------------------------------------- VersionedPtr

TEST(VersionedPtrTest, StorePublishesAndReturnsDisplaced) {
  VersionedPtr<int> cell;
  EXPECT_EQ(cell.Acquire(), nullptr);
  EXPECT_EQ(cell.version(), 0u);

  auto first = std::make_shared<const int>(1);
  EXPECT_EQ(cell.Store(first), nullptr);
  EXPECT_EQ(cell.version(), 1u);
  EXPECT_EQ(*cell.Acquire(), 1);

  auto second = std::make_shared<const int>(2);
  EXPECT_EQ(cell.Store(second), first);
  EXPECT_EQ(cell.version(), 2u);
  EXPECT_EQ(*cell.Acquire(), 2);
}

TEST(VersionedPtrTest, ReadersKeepDisplacedStateAlive) {
  VersionedPtr<int> cell(std::make_shared<const int>(7));
  std::shared_ptr<const int> pinned = cell.Acquire();
  cell.Store(std::make_shared<const int>(8));
  EXPECT_EQ(*pinned, 7);  // old state alive until the reader drops it
  EXPECT_EQ(*cell.Acquire(), 8);
}

// -------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMicros(), 0);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

// ------------------------------------------------------------------ JSON

TEST(JsonTest, AppendJsonStringEscapesQuotesBackslashAndControlBytes) {
  std::string out = "x=";
  AppendJsonString(&out, "say \"hi\" \\ bye");
  EXPECT_EQ(out, "x=\"say \\\"hi\\\" \\\\ bye\"");

  out.clear();
  AppendJsonString(&out, std::string("a\nb\tc\x01\x1f\0d", 9));
  EXPECT_EQ(out, "\"a\\u000ab\\u0009c\\u0001\\u001f\\u0000d\"");

  // UTF-8 (and DEL) pass through byte for byte.
  out.clear();
  AppendJsonString(&out, "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x99\x82\x7f");
  EXPECT_EQ(out, "\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x99\x82\x7f\"");

  out.clear();
  AppendJsonString(&out, "");
  EXPECT_EQ(out, "\"\"");
}

}  // namespace
}  // namespace ifls
