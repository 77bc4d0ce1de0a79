#ifndef IFLS_COMMON_MEMORY_TRACKER_H_
#define IFLS_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ifls {

/// Tracks logical bytes held by a query's data structures, recording the
/// high-water mark. This reproduces the paper's "memory cost" metric: each
/// algorithm charges the tracker when its key structures (priority queue,
/// retrieved-facility lists, candidate answer sets, ...) grow and releases
/// when they shrink. Deterministic and allocator-independent, so the memory
/// benchmarks are stable across platforms.
///
/// Thread-safe: the counters are atomic, so one tracker may be installed on
/// several threads at once (e.g. a batch engine measuring a whole fan-out).
/// The peak is maintained with a CAS loop and is exact — it can only miss a
/// high-water mark that no single linearized interleaving ever reached. The
/// usual deployment is still one tracker per query on one thread, where the
/// metric is bit-for-bit what the sequential implementation reported.
class MemoryTracker {
 public:
  MemoryTracker() = default;

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  void Charge(std::int64_t bytes) {
    const std::int64_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak && !peak_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  void Release(std::int64_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Accounts bytes backed by a file mapping rather than the heap. Mapped
  /// regions are reclaimable by the kernel at any time (the page cache owns
  /// the data), so they are tracked as a separate gauge and deliberately do
  /// NOT feed `current_`/`peak_` — the heap peak is what eviction budgets
  /// and the paper's memory metric reason about, and counting mmap-ed index
  /// payload there would inflate both.
  void ChargeMapped(std::int64_t bytes) {
    mapped_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void ReleaseMapped(std::int64_t bytes) {
    mapped_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Currently-held logical bytes.
  std::int64_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  /// High-water mark since construction / last Reset().
  std::int64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  /// Currently file-mapped bytes (never part of the heap peak).
  std::int64_t mapped_bytes() const {
    return mapped_.load(std::memory_order_relaxed);
  }

  void Reset() {
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
    mapped_.store(0, std::memory_order_relaxed);
  }

  /// Per-scope high-water reset. On construction the tracker's peak is wound
  /// back to the *current* held bytes, so `scope_peak_bytes()` reports the
  /// high-water mark reached inside this scope only (e.g. an arena build vs a
  /// later query, instead of one conflated global peak). On destruction the
  /// outer peak is restored to max(outer peak, scope peak), so enclosing
  /// scopes still see the true overall high-water mark. Scopes nest; intended
  /// for single-threaded measurement sections.
  class ScopedPeak {
   public:
    explicit ScopedPeak(MemoryTracker* tracker) : tracker_(tracker) {
      saved_peak_ = tracker_->peak_.load(std::memory_order_relaxed);
      tracker_->peak_.store(tracker_->current_bytes(),
                            std::memory_order_relaxed);
    }
    ~ScopedPeak() {
      const std::int64_t scope_peak = scope_peak_bytes();
      if (saved_peak_ > scope_peak) {
        tracker_->peak_.store(saved_peak_, std::memory_order_relaxed);
      }
    }

    ScopedPeak(const ScopedPeak&) = delete;
    ScopedPeak& operator=(const ScopedPeak&) = delete;

    /// High-water mark since this scope began.
    std::int64_t scope_peak_bytes() const {
      return tracker_->peak_.load(std::memory_order_relaxed);
    }

   private:
    MemoryTracker* tracker_;
    std::int64_t saved_peak_;
  };

 private:
  std::atomic<std::int64_t> current_{0};
  std::atomic<std::int64_t> peak_{0};
  std::atomic<std::int64_t> mapped_{0};
};

/// Thread-local active tracker used by TrackingAllocator. Null when no scope
/// is active (allocations then go untracked).
MemoryTracker* ActiveMemoryTracker();

/// Installs `tracker` as the thread's active tracker for the scope lifetime;
/// restores the previous tracker on destruction. Scopes nest.
class ScopedMemoryTracking {
 public:
  explicit ScopedMemoryTracking(MemoryTracker* tracker);
  ~ScopedMemoryTracking();

  ScopedMemoryTracking(const ScopedMemoryTracking&) = delete;
  ScopedMemoryTracking& operator=(const ScopedMemoryTracking&) = delete;

 private:
  MemoryTracker* previous_;
};

/// STL-compatible allocator charging the thread's active MemoryTracker.
/// Containers that dominate a query's footprint can be declared with this
/// allocator so their growth is captured without manual Charge calls.
template <typename T>
class TrackingAllocator {
 public:
  using value_type = T;

  TrackingAllocator() = default;
  template <typename U>
  TrackingAllocator(const TrackingAllocator<U>&) {}  // NOLINT

  T* allocate(std::size_t n) {
    if (MemoryTracker* t = ActiveMemoryTracker(); t != nullptr) {
      t->Charge(static_cast<std::int64_t>(n * sizeof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (MemoryTracker* t = ActiveMemoryTracker(); t != nullptr) {
      t->Release(static_cast<std::int64_t>(n * sizeof(T)));
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const TrackingAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const TrackingAllocator<U>&) const {
    return false;
  }
};

/// The tracked containers, spelled once: a query structure declared with
/// one of these charges the thread's active MemoryTracker as it grows.
template <typename T>
using TrackedVector = std::vector<T, TrackingAllocator<T>>;

template <typename K, typename V>
using TrackedHashMap =
    std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                       TrackingAllocator<std::pair<const K, V>>>;

}  // namespace ifls

#endif  // IFLS_COMMON_MEMORY_TRACKER_H_
