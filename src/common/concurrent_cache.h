#ifndef IFLS_COMMON_CONCURRENT_CACHE_H_
#define IFLS_COMMON_CONCURRENT_CACHE_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>

namespace ifls {

/// Sharded, fixed-capacity concurrent memo for door-to-door distances
/// (uint64 key -> double), replacing the single-mutex unordered_map that
/// used to serialize every DoorToDoor call across the batch engine's and the
/// serving subsystem's query threads. VipTree also keeps the results of
/// its batched PartitionToNode, PartitionToPartition and DoorToPartition
/// here, under keys whose tag bits (63 and/or 31) door-pair keys never set
/// (DistanceMemoKey in vip_tree.h).
///
/// Layout: a power-of-two number of shards, each a power-of-two open-
/// addressing slot array probed linearly over a short window. A slot is a
/// 128-bit (key, value) payload plus a seqlock word:
///
///   seq (even = stable, odd = writer active) | key | value bits
///
/// Readers are pure loads — key match, then value validated by re-reading
/// key and seq (accept only if the sequence was even and unchanged around
/// the value read). Writers claim a slot by CAS-ing seq even -> odd, write
/// key/value, then publish with seq+2 (release). Claiming makes writers
/// mutually exclusive per slot without any lock shared across slots, and
/// the seq validation makes slot reuse (eviction) safe: a reader racing a
/// rewrite simply misses. Everything is atomics, so the scheme is exactly
/// checkable under TSan (tests/concurrent_cache_test.cc).
///
/// Eviction: when an insert finds its whole probe window occupied by other
/// keys, it overwrites a deterministic in-window victim derived from the
/// key hash (random-ish replacement, zero metadata). Inserts racing a
/// claimed slot drop their write — the value is a memo, recomputable for
/// free, so "lose an insert occasionally" beats "wait".
///
/// Correctness leans on one invariant the callers guarantee: the value for
/// a key is an immutable function of the key (door-graph distances, and the
/// bounds composed from them, are static), so whichever insert wins a race
/// stores the same bits, and a stale-but-matching read is still the right
/// answer.
class ConcurrentDoorCache {
 public:
  struct Stats {
    std::uint64_t entries = 0;    // occupied slots (never counts rewrites)
    std::uint64_t evictions = 0;  // occupied-slot overwrites
    std::uint64_t capacity = 0;   // total slots
    std::uint64_t shards = 0;
  };

  /// `capacity` is rounded up so every shard holds a power-of-two number of
  /// slots; `shards` (power of two; 0 = pick from hardware concurrency).
  explicit ConcurrentDoorCache(std::size_t capacity = kDefaultCapacity,
                               std::size_t shards = 0) {
    if (shards == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      shards = std::bit_ceil(std::size_t{4} * (hw == 0 ? 4 : hw));
      if (shards > kMaxShards) shards = kMaxShards;
    }
    shards = std::bit_ceil(shards);
    if (capacity < shards * kProbeWindow) capacity = shards * kProbeWindow;
    std::size_t per_shard = std::bit_ceil((capacity + shards - 1) / shards);
    if (per_shard < kProbeWindow) per_shard = kProbeWindow;
    shard_mask_ = shards - 1;
    slot_mask_ = per_shard - 1;
    shards_ = std::make_unique<Shard[]>(shards);
    for (std::size_t s = 0; s <= shard_mask_; ++s) {
      shards_[s].slots = std::make_unique<Slot[]>(per_shard);
    }
  }

  ConcurrentDoorCache(const ConcurrentDoorCache&) = delete;
  ConcurrentDoorCache& operator=(const ConcurrentDoorCache&) = delete;

  /// True (and `*out` filled) when `key` is present. Keys must stay below
  /// kReservedKeys (VipTree's DistanceMemoKey checks that its keys do).
  bool Lookup(std::uint64_t key, double* out) const {
    const std::uint64_t h = Mix(key);
    const Shard& shard = shards_[(h >> kShardShift) & shard_mask_];
    std::size_t pos = static_cast<std::size_t>(h) & slot_mask_;
    for (std::size_t p = 0; p < kProbeWindow; ++p, pos = (pos + 1) & slot_mask_) {
      const Slot& slot = shard.slots[pos];
      const std::uint64_t k = slot.key.load(std::memory_order_acquire);
      if (k == kEmptyKey) return false;  // inserts fill windows front-first
      if (k != key) continue;
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) return false;  // writer mid-publish: miss
      const std::uint64_t bits =
          slot.value_bits.load(std::memory_order_acquire);
      const std::uint64_t k2 = slot.key.load(std::memory_order_acquire);
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
      if (k2 != key || s2 != s1) return false;  // rewritten under us: miss
      std::memcpy(out, &bits, sizeof(*out));
      return true;
    }
    return false;
  }

  /// Inserts (best effort — may drop under contention, may evict another
  /// entry when its window is full). Safe from any number of threads.
  void Insert(std::uint64_t key, double value) {
    const std::uint64_t h = Mix(key);
    Shard& shard = shards_[(h >> kShardShift) & shard_mask_];
    const std::size_t start = static_cast<std::size_t>(h) & slot_mask_;
    std::size_t pos = start;
    for (std::size_t p = 0; p < kProbeWindow;
         ++p, pos = (pos + 1) & slot_mask_) {
      Slot& slot = shard.slots[pos];
      const std::uint64_t k = slot.key.load(std::memory_order_acquire);
      if (k == key) return;  // present (same deterministic value)
      if (k != kEmptyKey) continue;
      if (WriteSlot(slot, key, value, /*expect_empty=*/true)) {
        shard.occupied.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Lost the claim race; the winner may have written our key or
      // another. Re-examine the same slot once, then move on.
      if (slot.key.load(std::memory_order_acquire) == key) return;
    }
    // Window full of other keys: overwrite a deterministic in-window
    // victim. A failed claim means a racing writer owns it — drop.
    const std::size_t victim =
        (start + ((h >> 37) & (kProbeWindow - 1))) & slot_mask_;
    if (WriteSlot(shard.slots[victim], key, value, /*expect_empty=*/false)) {
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Resets every slot. Safe concurrently with readers/writers (they miss
  /// or drop); counters (entries, evictions) reset too.
  void Clear() {
    for (std::size_t s = 0; s <= shard_mask_; ++s) {
      Shard& shard = shards_[s];
      for (std::size_t i = 0; i <= slot_mask_; ++i) {
        Slot& slot = shard.slots[i];
        std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
        if ((seq & 1) != 0) continue;  // writer active: it stays
        if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                              std::memory_order_acq_rel)) {
          continue;
        }
        slot.key.store(kEmptyKey, std::memory_order_relaxed);
        slot.value_bits.store(0, std::memory_order_relaxed);
        slot.seq.store(seq + 2, std::memory_order_release);
      }
      shard.occupied.store(0, std::memory_order_relaxed);
      shard.evictions.store(0, std::memory_order_relaxed);
    }
  }

  /// Occupied slots (stable only when quiescent, like any cache gauge).
  std::size_t size() const {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s <= shard_mask_; ++s) {
      total += shards_[s].occupied.load(std::memory_order_relaxed);
    }
    return static_cast<std::size_t>(total);
  }

  Stats stats() const {
    Stats st;
    for (std::size_t s = 0; s <= shard_mask_; ++s) {
      st.entries += shards_[s].occupied.load(std::memory_order_relaxed);
      st.evictions += shards_[s].evictions.load(std::memory_order_relaxed);
    }
    st.capacity = (shard_mask_ + 1) * (slot_mask_ + 1);
    st.shards = shard_mask_ + 1;
    return st;
  }

  std::size_t capacity() const { return (shard_mask_ + 1) * (slot_mask_ + 1); }
  std::size_t num_shards() const { return shard_mask_ + 1; }

  std::size_t MemoryFootprintBytes() const {
    return sizeof(ConcurrentDoorCache) +
           num_shards() * (sizeof(Shard) + (slot_mask_ + 1) * sizeof(Slot));
  }

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;
  /// Keys >= this collide with the empty sentinel and must not be used.
  static constexpr std::uint64_t kReservedKeys = ~std::uint64_t{0};

 private:
  static constexpr std::size_t kProbeWindow = 8;
  static constexpr std::size_t kMaxShards = 256;
  static constexpr unsigned kShardShift = 48;
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> key{kEmptyKey};
    std::atomic<std::uint64_t> value_bits{0};
  };

  struct alignas(64) Shard {
    std::unique_ptr<Slot[]> slots;
    std::atomic<std::uint64_t> occupied{0};
    std::atomic<std::uint64_t> evictions{0};
  };

  /// splitmix64 finalizer: full-avalanche spread of the packed door pair
  /// across shard and slot bits.
  static std::uint64_t Mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  /// Claims `slot` (seq even -> odd), writes the payload, publishes
  /// (seq + 2). Returns false without writing when the claim fails or the
  /// occupancy precondition no longer holds.
  static bool WriteSlot(Slot& slot, std::uint64_t key, double value,
                        bool expect_empty) {
    std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if ((seq & 1) != 0) return false;
    if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                          std::memory_order_acq_rel)) {
      return false;
    }
    // Claimed. Re-check occupancy: another writer may have filled the slot
    // between our probe and the claim.
    const std::uint64_t cur = slot.key.load(std::memory_order_relaxed);
    if (expect_empty && cur != kEmptyKey) {
      slot.seq.store(seq + 2, std::memory_order_release);
      return false;
    }
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    slot.value_bits.store(bits, std::memory_order_relaxed);
    slot.key.store(key, std::memory_order_relaxed);
    slot.seq.store(seq + 2, std::memory_order_release);
    return true;
  }

  std::unique_ptr<Shard[]> shards_;
  std::size_t shard_mask_ = 0;
  std::size_t slot_mask_ = 0;
};

}  // namespace ifls

#endif  // IFLS_COMMON_CONCURRENT_CACHE_H_
