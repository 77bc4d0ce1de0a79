#ifndef IFLS_COMMON_CONCURRENT_CACHE_H_
#define IFLS_COMMON_CONCURRENT_CACHE_H_

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

namespace ifls {

/// Fixed-capacity concurrent memo (uint32 key -> double) behind VipTree's
/// door pairs and batched partition-level distances. Callers key it with
/// venue-dense ranks (DistanceMemoKeySpace in src/index/distance_memo.h);
/// key 0 means "empty" and must not be used.
///
/// Layout: one array of 64-byte buckets, each a five-way set guarded by its
/// own seqlock word, 12.8 bytes per entry:
///
///   seq (u32; even = stable, odd = writer active) | key[5] (u32) | value[5]
///
/// A key lives only in the bucket mulhi(Mix(key), buckets) picks. Readers
/// are pure loads: read seq, scan the keys, read the matching value, then
/// re-read seq and accept only if it was even and is unchanged. Writers
/// claim the bucket by CAS-ing seq even -> odd, fill an empty way or evict
/// the way the key's hash picks, and publish with seq + 2. The payload
/// words are stored with release and loaded with acquire order: a reader
/// that loads a word a writer stored after its claim also sees the odd seq
/// on its re-read, and no fence is needed (plain moves on x86; TSan checks
/// this ordering, which it cannot do for fences). Every write moves seq
/// forward, so a reader's re-check can only pass with a stale seq after
/// 2^31 rewrites of one bucket inside its few loads (DESIGN §9.2). Inserts
/// that find the bucket claimed drop their write: the value is a memo, so
/// "lose an insert occasionally" beats "wait". All access goes through
/// std::atomic_ref, so TSan has no plain access to flag, and
/// tests/concurrent_cache_test.cc checks every hit of a contended table bit
/// for bit.
///
/// The bucket array is its own anonymous mapping. A fresh mapping reads as
/// zeros, which is an empty table, so construction writes nothing; it is
/// populated in the mmap call because a cold solve writes nearly every
/// page, and one fault per page costs more. munmap returns every page on
/// destruction, where a freed heap block of this size may stay with the
/// allocator.
///
/// Correctness leans on one invariant the callers guarantee: the value for
/// a key is an immutable function of the key (door-graph distances, and the
/// bounds composed from them, are static), so whichever insert wins a race
/// stores the same bits, and a stale-but-matching read is still the right
/// answer.
class ConcurrentDoorCache {
 public:
  struct Stats {
    std::uint64_t entries = 0;    // occupied ways (never counts rewrites)
    std::uint64_t evictions = 0;  // occupied-way overwrites
    std::uint64_t capacity = 0;   // total ways
  };

  static constexpr std::uint32_t kEmptyKey = 0;
  static constexpr std::size_t kWays = 5;

  /// Holds at least `capacity` entries (rounded up to whole buckets, at
  /// least one). Throws std::bad_alloc when the mapping fails.
  explicit ConcurrentDoorCache(std::size_t capacity)
      : num_buckets_(std::max<std::size_t>(1, (capacity + kWays - 1) / kWays)) {
    void* p = mmap(nullptr, num_buckets_ * sizeof(Bucket),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    buckets_ = static_cast<Bucket*>(p);
  }

  ~ConcurrentDoorCache() { munmap(buckets_, num_buckets_ * sizeof(Bucket)); }

  ConcurrentDoorCache(const ConcurrentDoorCache&) = delete;
  ConcurrentDoorCache& operator=(const ConcurrentDoorCache&) = delete;

  /// True (and `*out` filled) when `key` is present.
  bool Lookup(std::uint32_t key, double* out) const {
    Bucket& b = buckets_[MulHi(Mix(key), num_buckets_)];
    const std::atomic_ref<std::uint32_t> seq(b.seq);
    const std::uint32_t s1 = seq.load(std::memory_order_acquire);
    if ((s1 & 1) != 0) return false;  // writer mid-publish: miss
    for (std::size_t w = 0; w < kWays; ++w) {
      if (std::atomic_ref<std::uint32_t>(b.keys[w]).load(
              std::memory_order_acquire) != key) {
        continue;
      }
      const std::uint64_t bits = std::atomic_ref<std::uint64_t>(b.values[w])
                                     .load(std::memory_order_acquire);
      if (seq.load(std::memory_order_relaxed) != s1) return false;
      std::memcpy(out, &bits, sizeof(*out));
      return true;
    }
    return false;
  }

  /// Inserts (best effort: drops when the bucket is claimed, evicts when
  /// all five ways hold other keys). Safe from any number of threads.
  void Insert(std::uint32_t key, double value) {
    const std::uint64_t h = Mix(key);
    Bucket& b = buckets_[MulHi(h, num_buckets_)];
    const std::atomic_ref<std::uint32_t> seq(b.seq);
    std::uint32_t s = seq.load(std::memory_order_relaxed);
    if ((s & 1) != 0 ||
        !seq.compare_exchange_strong(s, s + 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return;
    }
    std::size_t way = kWays;
    for (std::size_t w = 0; w < kWays; ++w) {
      const std::uint32_t k = std::atomic_ref<std::uint32_t>(b.keys[w]).load(
          std::memory_order_relaxed);
      if (k == key) {  // present (same deterministic value)
        seq.store(s + 2, std::memory_order_release);
        return;
      }
      if (k == kEmptyKey && way == kWays) way = w;
    }
    if (way == kWays) {
      way = MulHi(h << 32, kWays);  // low hash bits: independent of bucket
      evictions_.fetch_add(1, std::memory_order_relaxed);
    } else {
      occupied_.fetch_add(1, std::memory_order_relaxed);
    }
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    // Release: a reader whose acquire load sees either store also sees
    // the odd seq of the claim above on its re-read.
    std::atomic_ref<std::uint64_t>(b.values[way])
        .store(bits, std::memory_order_release);
    std::atomic_ref<std::uint32_t>(b.keys[way])
        .store(key, std::memory_order_release);
    seq.store(s + 2, std::memory_order_release);
  }

  /// Empties every bucket. Safe concurrently with readers (they miss) and
  /// writers (each insert lands wholly before or after its bucket's
  /// clear). Evictions reset to 0.
  void Clear() {
    std::uint64_t cleared = 0;
    for (std::size_t i = 0; i < num_buckets_; ++i) {
      Bucket& b = buckets_[i];
      const std::atomic_ref<std::uint32_t> seq(b.seq);
      std::uint32_t s = seq.load(std::memory_order_relaxed);
      // Writers hold a claim for a handful of stores: wait them out.
      while ((s & 1) != 0 ||
             !seq.compare_exchange_weak(s, s + 1, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
        s = seq.load(std::memory_order_relaxed);
      }
      for (std::size_t w = 0; w < kWays; ++w) {
        const std::atomic_ref<std::uint32_t> k(b.keys[w]);
        if (k.load(std::memory_order_relaxed) == kEmptyKey) continue;
        k.store(kEmptyKey, std::memory_order_release);
        ++cleared;
      }
      seq.store(s + 2, std::memory_order_release);
    }
    occupied_.fetch_sub(cleared, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
  }

  /// Occupied ways (stable only when quiescent, like any cache gauge).
  std::size_t size() const {
    return static_cast<std::size_t>(
        occupied_.load(std::memory_order_relaxed));
  }

  Stats stats() const {
    Stats st;
    st.entries = occupied_.load(std::memory_order_relaxed);
    st.evictions = evictions_.load(std::memory_order_relaxed);
    st.capacity = capacity();
    return st;
  }

  std::size_t capacity() const { return num_buckets_ * kWays; }

  std::size_t MemoryFootprintBytes() const {
    return sizeof(ConcurrentDoorCache) + num_buckets_ * sizeof(Bucket);
  }

 private:
  struct alignas(64) Bucket {
    std::uint32_t seq;
    std::uint32_t keys[kWays];
    std::uint64_t values[kWays];
  };
  static_assert(sizeof(Bucket) == 64);

  /// splitmix64 finalizer: full-avalanche spread of the dense key ranks.
  static std::uint64_t Mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  /// floor(h * n / 2^64): maps a uniform 64-bit hash onto [0, n).
  static std::size_t MulHi(std::uint64_t h, std::size_t n) {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(h) * n) >> 64);
  }

  Bucket* buckets_ = nullptr;
  std::size_t num_buckets_ = 0;
  /// Written only on inserts and clears; on their own line so they do not
  /// share one with the read-only fields every lookup loads.
  alignas(64) std::atomic<std::uint64_t> occupied_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace ifls

#endif  // IFLS_COMMON_CONCURRENT_CACHE_H_
