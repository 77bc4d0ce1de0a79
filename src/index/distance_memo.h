#ifndef IFLS_INDEX_DISTANCE_MEMO_H_
#define IFLS_INDEX_DISTANCE_MEMO_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/common/logging.h"

namespace ifls {

/// What one door-cache entry memoizes (DESIGN §9.2).
enum class DistanceMemoKind : std::uint8_t {
  kDoorPair = 0,              // DoorToDoor(a, b): doors x doors
  kDoorToPartition = 1,       // DoorToPartition(d, f): doors x partitions
  kPartitionToNode = 2,       // PartitionToNode(p, n): partitions x nodes
  kPartitionToPartition = 3,  // PartitionToPartition(p, q): partitions^2
};

/// The memo's key space over one venue (D doors, P partitions, N tree
/// nodes): every (kind, from, to) gets the dense rank
///
///   1 + offset(kind) + from * width(kind) + to
///
/// with the kinds laid out back to back in DistanceMemoKind order, so the
/// K = D^2 + D*P + P*N + P^2 keys fill [1, K] and 0 stays free for the
/// cache's empty sentinel. Keys are 32-bit: a venue whose K does not fit
/// (fits() false) runs without the memo.
class DistanceMemoKeySpace {
 public:
  DistanceMemoKeySpace(std::uint64_t doors, std::uint64_t partitions,
                       std::uint64_t nodes)
      : width_{doors, partitions, nodes, partitions},
        offset_{0, doors * doors, doors * doors + doors * partitions,
                doors * doors + doors * partitions + partitions * nodes},
        size_(offset_[3] + partitions * partitions),
        cache_entries_(static_cast<std::size_t>(std::max<std::uint64_t>(
            std::uint64_t{1} << 16, 64 * (partitions + doors)))) {}

  /// K, the number of distinct keys.
  std::uint64_t size() const { return size_; }

  /// True when every key, and the sentinel 0, fits in 32 bits.
  bool fits() const { return size_ <= UINT32_MAX; }

  /// Memo entries to size the cache for: 64 per partition and door, and
  /// at least 2^16.
  std::size_t cache_entries() const { return cache_entries_; }

  /// The rank of (kind, from, to); requires fits() and in-range ids.
  std::uint32_t Key(DistanceMemoKind kind, std::int32_t from,
                    std::int32_t to) const {
    const std::size_t k = static_cast<std::size_t>(kind);
    IFLS_DCHECK(from >= 0 && to >= 0 &&
                static_cast<std::uint64_t>(to) < width_[k]);
    return static_cast<std::uint32_t>(
        1 + offset_[k] + static_cast<std::uint64_t>(from) * width_[k] +
        static_cast<std::uint64_t>(to));
  }

 private:
  std::uint64_t width_[4];
  std::uint64_t offset_[4];
  std::uint64_t size_;
  std::size_t cache_entries_;
};

}  // namespace ifls

#endif  // IFLS_INDEX_DISTANCE_MEMO_H_
