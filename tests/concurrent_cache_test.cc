// ConcurrentDoorCache: single-thread semantics of the five-way bucket table
// plus multi-threaded stress on one- and two-bucket tables, where every
// insert contends for the same seqlock. Runs under `ctest -L parallel`,
// which is the label the TSan CI job executes — the cache is all atomics,
// so the seqlock protocol is checked there by construction, not by
// sampling.
//
// Carries its own main() so `--iterations=high` can scale the threaded
// cases' op counts tenfold (the nightly ctest configuration).

#include "src/common/concurrent_cache.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ifls {
namespace {

// Multiplies the threaded cases' op counts; set by --iterations=high.
int g_scale = 1;

/// The deterministic key -> value function the callers guarantee (a cached
/// door distance is a pure function of its key). Every hit is verified
/// against it bit for bit.
double ValueFor(std::uint32_t key) {
  return static_cast<double>(key % 100003) * 0.5 + 1.0 / 3.0;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(ConcurrentDoorCacheTest, InsertThenLookup) {
  ConcurrentDoorCache cache(1024);
  double out = -1.0;
  EXPECT_FALSE(cache.Lookup(7, &out));
  cache.Insert(7, 3.25);
  ASSERT_TRUE(cache.Lookup(7, &out));
  EXPECT_EQ(out, 3.25);
  EXPECT_EQ(cache.size(), 1u);
  cache.Insert(7, 3.25);  // present: no second entry
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ConcurrentDoorCacheTest, FreshTableReadsEmpty) {
  ConcurrentDoorCache cache(100000);
  double out = -1.0;
  for (std::uint32_t k = 1; k <= 50000; ++k) {
    ASSERT_FALSE(cache.Lookup(k, &out)) << k;
  }
  EXPECT_FALSE(cache.Lookup(std::numeric_limits<std::uint32_t>::max(), &out));
  EXPECT_EQ(out, -1.0);
  const ConcurrentDoorCache::Stats st = cache.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.capacity, cache.capacity());
}

TEST(ConcurrentDoorCacheTest, ValueBitsRoundTripExactly) {
  ConcurrentDoorCache cache(256);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double values[] = {0.0,  -0.0,  1.0 / 3.0, 1e-300,
                           1e300, kInf, -kInf,     kDenorm};
  std::uint32_t key = 1;
  for (double v : values) {
    cache.Insert(key, v);
    double out = -1.0;
    ASSERT_TRUE(cache.Lookup(key, &out));
    EXPECT_TRUE(SameBits(out, v)) << v;
    ++key;
  }
}

TEST(ConcurrentDoorCacheTest, ClearEmptiesEverySlot) {
  ConcurrentDoorCache cache(512);
  for (std::uint32_t k = 1; k <= 200; ++k) cache.Insert(k, ValueFor(k));
  EXPECT_GT(cache.size(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  double out;
  for (std::uint32_t k = 1; k <= 200; ++k) EXPECT_FALSE(cache.Lookup(k, &out));
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Cleared ways are reusable.
  cache.Insert(5, ValueFor(5));
  ASSERT_TRUE(cache.Lookup(5, &out));
  EXPECT_TRUE(SameBits(out, ValueFor(5)));
}

TEST(ConcurrentDoorCacheTest, CapacityRoundsUpToWholeBuckets) {
  EXPECT_EQ(ConcurrentDoorCache(1000).capacity(), 1000u);
  EXPECT_EQ(ConcurrentDoorCache(1001).capacity(), 1005u);
  EXPECT_EQ(ConcurrentDoorCache(1).capacity(), ConcurrentDoorCache::kWays);
  EXPECT_EQ(ConcurrentDoorCache(0).capacity(), ConcurrentDoorCache::kWays);
  // 64 bytes per five entries, plus the object itself.
  const ConcurrentDoorCache cache(65536);
  EXPECT_EQ(cache.capacity(), 65540u);
  EXPECT_EQ(cache.MemoryFootprintBytes(),
            sizeof(ConcurrentDoorCache) + 65540u / 5 * 64);
}

TEST(ConcurrentDoorCacheTest, OverflowEvictsInsteadOfGrowing) {
  // One bucket, far more keys than ways: inserts must stay bounded and
  // evict, and every hit must still return the key's own value.
  ConcurrentDoorCache cache(ConcurrentDoorCache::kWays);
  const std::uint32_t kKeys = 10000;
  for (std::uint32_t k = 1; k <= kKeys; ++k) cache.Insert(k, ValueFor(k));
  EXPECT_EQ(cache.size(), ConcurrentDoorCache::kWays);
  EXPECT_EQ(cache.stats().evictions, kKeys - ConcurrentDoorCache::kWays);
  std::size_t hits = 0;
  for (std::uint32_t k = 1; k <= kKeys; ++k) {
    double out;
    if (cache.Lookup(k, &out)) {
      ++hits;
      EXPECT_TRUE(SameBits(out, ValueFor(k))) << k;
    }
  }
  EXPECT_EQ(hits, ConcurrentDoorCache::kWays);
}

/// Reads `key` and counts a hit whose bits are not ValueFor(key).
void CheckedLookup(const ConcurrentDoorCache& cache, std::uint32_t key,
                   std::uint64_t* hits, std::atomic<std::uint64_t>* wrong) {
  double out = -1.0;
  if (!cache.Lookup(key, &out)) return;
  ++*hits;
  if (!SameBits(out, ValueFor(key))) {
    wrong->fetch_add(1, std::memory_order_relaxed);
  }
}

// One thread clears the table over and over while others refill it and
// read: no read may see a value that is not its key's, and once the
// racers are done a final Clear leaves nothing behind.
TEST(ConcurrentDoorCacheTest, ClearRacesReaders) {
  constexpr int kThreads = 6;
  constexpr std::uint32_t kKeys = 64;
  const int ops_per_thread = 20000 * g_scale;
  ConcurrentDoorCache cache(2 * kKeys);
  std::atomic<int> finished{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> total_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [t, ops_per_thread, &cache, &finished, &wrong, &total_hits] {
          std::uint64_t hits = 0;
          std::uint32_t k = 1;
          for (int op = 0; op < ops_per_thread; ++op, k = k % kKeys + 1) {
            if (t % 2 == 0) cache.Insert(k, ValueFor(k));
            CheckedLookup(cache, k, &hits, &wrong);
          }
          total_hits.fetch_add(hits, std::memory_order_relaxed);
          finished.fetch_add(1, std::memory_order_release);
        });
  }
  do {
    cache.Clear();
  } while (finished.load(std::memory_order_acquire) < kThreads);
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u) << "a reader saw another key's value";
  EXPECT_GT(total_hits.load(), 0u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  double out;
  for (std::uint32_t k = 1; k <= kKeys; ++k) {
    EXPECT_FALSE(cache.Lookup(k, &out));
  }
}

// 16 threads hammer a one- or two-bucket table with a mixed workload:
// inserts of a shared key universe larger than the ways (every insert
// contends for the same seqlock and many evict), lookups verifying the
// key -> value contract bit-exactly, and periodic clears from one thread.
// The universe is kept small so that lookups often match a way another
// thread is rewriting: dropping either seqlock check in Lookup fails this
// test.
// Any torn read the seqlock failed to suppress shows up as a value
// mismatch; any write-write race as TSan noise in the sanitizer job.
TEST(ConcurrentDoorCacheTest, SixteenThreadMixedStress) {
  constexpr int kThreads = 16;
  constexpr std::uint32_t kKeyUniverse = 12;
  const int ops_per_thread = 80000 * g_scale;
  for (const std::size_t capacity : {std::size_t{5}, std::size_t{10}}) {
    ConcurrentDoorCache cache(capacity);
    std::atomic<std::uint64_t> wrong_values{0};
    std::atomic<std::uint64_t> total_hits{0};

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [t, ops_per_thread, &cache, &wrong_values, &total_hits] {
            // Cheap per-thread xorshift; no shared RNG state.
            std::uint64_t x = 0x9e3779b97f4a7c15ull * (t + 1);
            std::uint64_t hits = 0;
            for (int op = 0; op < ops_per_thread; ++op) {
              x ^= x << 13;
              x ^= x >> 7;
              x ^= x << 17;
              // Key from the high half: op below uses the low bits, and
              // sharing them would split the keys between inserters and
              // readers.
              const auto key =
                  static_cast<std::uint32_t>((x >> 32) % kKeyUniverse) + 1;
              if (x % 4 == 0) {
                cache.Insert(key, ValueFor(key));
              } else if (t == 0 && op % 8192 == 0) {
                cache.Clear();
              } else {
                CheckedLookup(cache, key, &hits, &wrong_values);
              }
            }
            total_hits.fetch_add(hits, std::memory_order_relaxed);
          });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(wrong_values.load(), 0u)
        << "a reader observed a value that was not its key's (capacity "
        << capacity << ")";
    // 12 keys over 5 or 10 ways and 1.28M ops: hits are statistically
    // certain; zero would mean lookups are broken.
    EXPECT_GT(total_hits.load(), 0u);
    EXPECT_LE(cache.size(), cache.capacity());
  }
}

}  // namespace
}  // namespace ifls

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iterations=high") == 0) ifls::g_scale = 10;
  }
  return RUN_ALL_TESTS();
}
