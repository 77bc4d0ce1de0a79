#ifndef IFLS_SERVICE_RESULT_ITERATOR_H_
#define IFLS_SERVICE_RESULT_ITERATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "src/common/metrics_registry.h"
#include "src/core/efficient.h"
#include "src/service/snapshot.h"

namespace ifls {

class IflsService;

/// A paged view of one ranked MinMax answer, obtained from
/// IflsService::OpenIterator. The iterator pins the ServingState current at
/// open time, so every page is computed against the same (snapshot ⊕
/// overlay) composition: pages are mutually consistent and completely
/// unaffected by mutations or compactions that land while the caller is
/// between Next() calls. Concatenating all pages reproduces, bit-identically,
/// the full ranked answer a one-shot top-k=|Fn| solve would return — but the
/// underlying search is continued lazily, so asking for the first page of a
/// large candidate set does only the work the certified prefix requires.
///
/// Thread-safe; Next() calls serialize.
class ResultIterator {
 public:
  using Page = RankedStream::Page;

  /// Returns up to `m` more (candidate, objective) pairs in ranked order
  /// (ascending objective, ties by lowest partition id). `exhausted` is set
  /// on the page that delivers the final entry and on every page after.
  Page Next(std::size_t m);

  bool exhausted() const;
  /// Entries delivered across all pages so far.
  std::size_t emitted() const;
  /// Candidate count of the pinned composition (the ranking's final length).
  std::size_t total_candidates() const;
  /// Cumulative solver work across all pages so far.
  QueryStats stats() const;

  /// Service mutation version the iterator is pinned to.
  std::uint64_t version() const { return version_; }
  std::uint64_t snapshot_epoch() const { return state_->snapshot->epoch(); }
  std::size_t overlay_size() const { return state_->overlay_size; }

  /// The pinned state itself (tests re-solve against it to check pages).
  const std::shared_ptr<const ServingState>& state() const { return state_; }

  ResultIterator(const ResultIterator&) = delete;
  ResultIterator& operator=(const ResultIterator&) = delete;

 private:
  friend class IflsService;

  ResultIterator(std::shared_ptr<const ServingState> state,
                 std::unique_ptr<RankedStream> stream, std::uint64_t version,
                 Counter* pages);

  /// Declared before stream_: the stream reads the pinned state's tree, so
  /// it must be destroyed first (members destroy in reverse order).
  const std::shared_ptr<const ServingState> state_;
  const std::uint64_t version_;
  Counter* const pages_;

  mutable std::mutex mu_;
  std::unique_ptr<RankedStream> stream_;
};

}  // namespace ifls

#endif  // IFLS_SERVICE_RESULT_ITERATOR_H_
