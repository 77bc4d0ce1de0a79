#ifndef IFLS_COMMON_ARENA_H_
#define IFLS_COMMON_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/memory_tracker.h"
#include "src/common/status.h"

namespace ifls {

/// Append-only contiguous buffer backing the flat index layouts. One arena
/// holds the concatenated payload of many owners (e.g. every VIP-tree node's
/// distance matrix) so a traversal touches one allocation instead of chasing
/// per-node heap pointers. Owners address their slice by offset, or — because
/// the protocol below guarantees pointer stability — by raw pointer/span.
///
/// Two backing modes:
///
///  * Owned (default): a heap vector. Call Reserve() once with the exact
///    total before any Append/Allocate. Appends past the reserved capacity
///    are a programming error (IFLS_CHECK), never a silent reallocation, so
///    spans handed out during the fill can never dangle. Memory is charged
///    to the thread's active MemoryTracker (via TrackingAllocator) at
///    Reserve time.
///
///  * Mapped (AdoptMapped): a read-only view into externally-owned memory,
///    typically an mmap-ed snapshot section. The same layout pass that fills
///    an owned arena *replays* over a mapped one: Reserve() validates the
///    computed total against the mapped element count, Allocate() advances a
///    cursor without writing, and Append/AppendRange verify that the mapped
///    content equals what the layout would have written. Replay mismatches
///    are data corruption, not programming errors, so they set a sticky
///    error surfaced through BackingStatus() instead of aborting — the
///    loader converts it into a proper Status. mutable_data() is forbidden
///    in mapped mode. Mapped bytes are never part of MemoryFootprintBytes()
///    (they are page-cache bytes, reported separately via MappedBytes()).
template <typename T>
class ArenaBuffer {
 public:
  ArenaBuffer() = default;

  /// Owned mode: allocates exactly `total` elements worth of capacity. Must
  /// be called before the first Append/Allocate and at most once per arena
  /// lifetime (Clear() re-arms it). Mapped mode: validates that the layout's
  /// computed total matches the mapped section size (sticky error if not).
  void Reserve(std::size_t total) {
    if (mapped_data_ != nullptr) {
      if (total != mapped_size_) {
        SetError("mapped section holds " + std::to_string(mapped_size_) +
                 " elements but the layout expects " + std::to_string(total));
      }
      return;
    }
    IFLS_CHECK(data_.capacity() == 0 && "ArenaBuffer::Reserve called twice");
    data_.reserve(total);
  }

  /// Switches this (unused) arena to mapped mode over `[data, data+count)`.
  /// The backing memory is owned elsewhere (e.g. a MappedFile the index
  /// keeps alive) and must outlive the arena.
  void AdoptMapped(const T* data, std::size_t count) {
    IFLS_CHECK(mapped_data_ == nullptr && data_.capacity() == 0 &&
               "ArenaBuffer::AdoptMapped on a used arena");
    mapped_data_ = data;
    mapped_size_ = count;
    cursor_ = 0;
    error_.clear();
  }

  bool is_mapped() const { return mapped_data_ != nullptr; }

  /// Owned: appends `count` copies of `value`; returns the offset of the
  /// first one. Mapped: advances the cursor past `count` already-present
  /// elements without inspecting them (payload slots carry real data, not
  /// the fill value) and returns their offset.
  std::size_t Allocate(std::size_t count, const T& value) {
    if (mapped_data_ != nullptr) return AdvanceMapped(count);
    IFLS_CHECK(data_.size() + count <= data_.capacity() &&
               "ArenaBuffer overflow: Reserve() total was too small");
    const std::size_t offset = data_.size();
    data_.insert(data_.end(), count, value);
    return offset;
  }

  /// Appends a single element; returns its offset.
  std::size_t Append(const T& value) {
    const T* first = &value;
    return AppendRange(first, first + 1);
  }

  /// Owned: appends a range; returns the offset of the first copied element.
  /// Mapped: verifies the mapped content at the cursor equals the range
  /// (sticky error on mismatch) and advances past it.
  template <typename It>
  std::size_t AppendRange(It first, It last) {
    const std::size_t count = static_cast<std::size_t>(last - first);
    if (mapped_data_ != nullptr) {
      const std::size_t offset = AdvanceMapped(count);
      if (error_.empty() &&
          !std::equal(first, last, mapped_data_ + offset)) {
        SetError("mapped content does not match the derived layout at "
                 "offset " +
                 std::to_string(offset));
      }
      return offset;
    }
    IFLS_CHECK(data_.size() + count <= data_.capacity() &&
               "ArenaBuffer overflow: Reserve() total was too small");
    const std::size_t offset = data_.size();
    data_.insert(data_.end(), first, last);
    return offset;
  }

  const T* data() const {
    return mapped_data_ != nullptr ? mapped_data_ : data_.data();
  }
  T* mutable_data() {
    IFLS_CHECK(mapped_data_ == nullptr &&
               "ArenaBuffer::mutable_data on a mapped (read-only) arena");
    return data_.data();
  }

  std::size_t size() const {
    return mapped_data_ != nullptr ? cursor_ : data_.size();
  }
  std::size_t capacity() const {
    return mapped_data_ != nullptr ? mapped_size_ : data_.capacity();
  }
  bool empty() const { return size() == 0; }

  const T& operator[](std::size_t i) const { return data()[i]; }
  T& operator[](std::size_t i) { return mutable_data()[i]; }

  /// Fraction of reserved capacity actually filled (1.0 when Reserve was
  /// exact, which the flat index layouts guarantee).
  double utilization() const {
    return capacity() == 0 ? 1.0
                           : static_cast<double>(size()) /
                                 static_cast<double>(capacity());
  }

  /// Resident heap bytes held by this arena. Zero in mapped mode: the bytes
  /// belong to the page cache and are reported via MappedBytes() instead,
  /// so eviction budgets see only what dropping the arena actually frees.
  std::size_t MemoryFootprintBytes() const {
    return data_.capacity() * sizeof(T);
  }

  /// File-mapped bytes viewed by this arena (0 in owned mode).
  std::size_t MappedBytes() const { return mapped_size_ * sizeof(T); }

  /// OK, or the first replay mismatch recorded in mapped mode. Loaders must
  /// check this after the layout pass: a non-OK arena means the snapshot's
  /// descriptors and payload disagree (corruption), and any spans handed
  /// out describe the file's layout, not a trustworthy index.
  Status BackingStatus() const {
    return error_.empty() ? Status::OK() : Status::InvalidArgument(error_);
  }

  void Clear() {
    data_.clear();
    data_.shrink_to_fit();
    mapped_data_ = nullptr;
    mapped_size_ = 0;
    cursor_ = 0;
    error_.clear();
  }

 private:
  std::size_t AdvanceMapped(std::size_t count) {
    const std::size_t offset = cursor_;
    if (mapped_size_ - cursor_ < count) {
      SetError("layout overruns the mapped section (cursor " +
               std::to_string(cursor_) + " + " + std::to_string(count) +
               " > " + std::to_string(mapped_size_) + ")");
      cursor_ = mapped_size_;
      // Clamp so the returned slice stays inside the mapping; the sticky
      // error invalidates the whole load anyway.
      return mapped_size_ >= count ? mapped_size_ - count : 0;
    }
    cursor_ += count;
    return offset;
  }

  void SetError(const std::string& message) {
    if (error_.empty()) error_ = "ArenaBuffer: " + message;
  }

  TrackedVector<T> data_;

  // Mapped-mode state. `mapped_data_` doubles as the mode discriminant.
  const T* mapped_data_ = nullptr;
  std::size_t mapped_size_ = 0;
  std::size_t cursor_ = 0;
  std::string error_;
};

}  // namespace ifls

#endif  // IFLS_COMMON_ARENA_H_
