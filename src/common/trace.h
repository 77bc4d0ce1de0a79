#ifndef IFLS_COMMON_TRACE_H_
#define IFLS_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace ifls {

/// Span categories, one per layer of the stack (DESIGN.md §10). The category
/// becomes the `cat` field of the exported Chrome trace events, so Perfetto
/// can filter "show me only oracle work" across all threads.
enum class TraceCategory : std::uint8_t {
  kSolver = 0,      // solver phases (efficient / baseline / extensions)
  kOracle = 1,      // distance oracle work (NN search, Dijkstra fallback)
  kService = 2,     // serving front (queue wait, snapshot pin, solve)
  kCompaction = 3,  // snapshot compaction (inline under the writer lock)
};
inline constexpr int kNumTraceCategories = 4;

const char* TraceCategoryName(TraceCategory category);

/// Nanoseconds on the process-wide trace clock: steady_clock relative to a
/// base captured at first use, so exported timestamps start near zero.
std::uint64_t TraceNowNanos();

/// The trace-clock reading for an already-captured steady_clock time point
/// (lets callers that stamped `now()` for other reasons — e.g. admission
/// times — derive retroactive span endpoints without a second clock read).
std::uint64_t TraceNanosFrom(std::chrono::steady_clock::time_point tp);

/// One completed span, as returned by TraceRecorder::Snapshot().
struct TraceEvent {
  /// Statically-allocated name (TraceSpan requires string literals).
  const char* name = nullptr;
  TraceCategory category = TraceCategory::kService;
  /// Dense recorder-assigned id of the recording thread.
  std::uint32_t tid = 0;
  /// Query attribution from the enclosing TraceIdScope; 0 = unattributed.
  std::uint64_t trace_id = 0;
  std::uint64_t start_nanos = 0;
  std::uint64_t end_nanos = 0;
};

namespace trace_internal {

/// Global on/off switch, read with one relaxed load on every TraceSpan
/// construction — the entire cost of the instrumentation when disabled.
extern std::atomic<bool> g_enabled;

/// Per-thread trace attribution installed by TraceIdScope.
struct ThreadTraceState {
  std::uint64_t trace_id = 0;
  /// True when the enclosing query lost the 1-in-N sampling draw: spans on
  /// this thread are skipped until the scope ends.
  bool suppressed = false;
};

ThreadTraceState& ThreadState();

}  // namespace trace_internal

/// True when span recording is globally enabled.
inline bool TraceEnabled() {
  return trace_internal::g_enabled.load(std::memory_order_relaxed);
}

/// Process-wide span recorder (DESIGN.md §10): every thread that records
/// gets its own fixed-capacity ring of seqlock-guarded slots, so the record
/// path never takes a lock and never allocates, and a concurrent exporter
/// can walk all rings without stopping writers — the same idiom as
/// ConcurrentDoorCache. When a ring wraps, the oldest spans are overwritten
/// and counted in dropped_events().
class TraceRecorder {
 public:
  /// Ring capacity per thread. 4096 complete spans cover several queries of
  /// full-detail tracing; older spans fall off the back.
  static constexpr std::size_t kSlotsPerThread = 4096;

  static TraceRecorder& Global();

  /// Turns recording on. `sample_every` controls query sampling: a query
  /// whose TraceIdScope loses the 1-in-N draw records no spans (spans
  /// outside any scope — compaction, admin work — always record while
  /// enabled). 0/1 = record every query. Setting IFLS_TRACE=N in the
  /// environment calls Enable(N) at process start (unset or 0 = off).
  void Enable(std::uint32_t sample_every = 1);
  void Disable();
  bool enabled() const { return TraceEnabled(); }
  std::uint32_t sample_every() const;

  /// Allocates a fresh trace id (1-based, monotonic).
  std::uint64_t NewTraceId();
  /// Whether a query with this id wins the 1-in-N sampling draw.
  bool Sampled(std::uint64_t trace_id) const;

  /// Records one completed span on the calling thread's ring. TraceSpan is
  /// the normal entry; call directly for retroactive spans whose start
  /// predates the call (e.g. queue wait measured at dequeue time).
  void Record(TraceCategory category, const char* name, std::uint64_t trace_id,
              std::uint64_t start_nanos, std::uint64_t end_nanos);

  /// Drops all recorded spans (best-effort while writers are active) and
  /// resets the dropped-span counter.
  void Clear();

  /// All currently-held spans, ordered by (tid, start). Safe to call while
  /// other threads record; concurrently-written slots are skipped.
  std::vector<TraceEvent> Snapshot() const;
  /// Snapshot() filtered to one trace id, across every thread's ring.
  std::vector<TraceEvent> SnapshotTrace(std::uint64_t trace_id) const;
  /// One trace id's spans from the calling thread's ring only, in start
  /// order, without taking the registry lock. This is the slow-query
  /// capture: a query's span tree is recorded on the thread that executes
  /// it, so scanning one ring is enough and concurrent queries never
  /// serialise on each other's capture.
  std::vector<TraceEvent> SnapshotLocalTrace(std::uint64_t trace_id) const;

  /// Spans lost to ring wrap-around (or buffer reuse) since the last Clear.
  std::uint64_t dropped_events() const;

  /// Process-level metadata stamped into every export's "otherData" block
  /// (Chrome trace viewers show it under "Metadata"). Last write per key
  /// wins. Used for run attribution that is not a span — e.g. the kernel
  /// dispatch layer records the active min-plus backend tier here.
  void SetMetadata(const std::string& key, const std::string& value);

  /// Writes the current snapshot as Chrome trace-event JSON ("traceEvents"
  /// array of balanced B/E pairs, microsecond timestamps, plus the
  /// "otherData" metadata block), loadable in Perfetto / chrome://tracing.
  Status ExportChromeTrace(std::ostream& out) const;
  Status ExportChromeTraceToFile(const std::string& path) const;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  struct ThreadBuffer;

  TraceRecorder();
  ~TraceRecorder();  // never runs: Global() leaks the singleton on purpose

  /// The calling thread's ring, created on first record and returned to a
  /// reuse pool (events intact) when the thread exits.
  ThreadBuffer* LocalBuffer();
  /// The calling thread's ring slot: null until the thread first records.
  static ThreadBuffer*& LocalSlot();

  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  /// Export metadata (key -> value), guarded by registry_mu_. A sorted
  /// vector keeps the exported block deterministic.
  std::vector<std::pair<std::string, std::string>> metadata_;
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::atomic<std::uint32_t> sample_every_{1};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span: stamps start at construction, records the completed span into
/// the calling thread's ring at destruction. `name` must be a string
/// literal (or otherwise outlive the recorder's contents). Construction
/// while tracing is disabled costs one relaxed atomic load.
class TraceSpan {
 public:
  TraceSpan(TraceCategory category, const char* name) {
    if (!TraceEnabled()) return;
    const trace_internal::ThreadTraceState& state =
        trace_internal::ThreadState();
    if (state.suppressed) return;
    category_ = category;
    name_ = name;
    trace_id_ = state.trace_id;
    start_nanos_ = TraceNowNanos();
    armed_ = true;
  }

  ~TraceSpan() {
    if (armed_) Finish();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Finish();

  const char* name_ = nullptr;
  std::uint64_t trace_id_ = 0;
  std::uint64_t start_nanos_ = 0;
  TraceCategory category_ = TraceCategory::kService;
  bool armed_ = false;
};

/// Installs {trace_id, sampling verdict} for the current thread; every
/// TraceSpan constructed underneath inherits the id (and is skipped when the
/// query lost the sampling draw). Restores the previous state on
/// destruction, so scopes nest.
class TraceIdScope {
 public:
  TraceIdScope(std::uint64_t trace_id, bool sampled)
      : previous_(trace_internal::ThreadState()) {
    trace_internal::ThreadTraceState& state = trace_internal::ThreadState();
    state.trace_id = trace_id;
    state.suppressed = !sampled;
  }

  ~TraceIdScope() { trace_internal::ThreadState() = previous_; }

  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  trace_internal::ThreadTraceState previous_;
};

/// Renders `events` (one query's spans, or any Snapshot() slice) as an
/// indented tree, one span per line, nested by containment per thread.
/// Used by the slow-query log; capped at `max_lines` spans.
std::string FormatSpanTree(const std::vector<TraceEvent>& events,
                           std::size_t max_lines = 64);

/// Trace context as it crosses a process boundary (DESIGN.md §15): the wire
/// layer serializes this into the optional frame extension, the server
/// installs it via TraceIdScope so its spans land under the caller's trace
/// id, and the sampling verdict travels with it — the server must never
/// re-roll the 1-in-N draw for a propagated context.
struct TraceContext {
  std::uint64_t trace_id = 0;
  /// Id of the client-side RPC span this request hangs under (the client
  /// uses the RPC's request id). Purely for correlation in ledger entries
  /// and logs; the span recorder itself nests by containment, not by id.
  std::uint64_t parent_span_id = 0;
  bool sampled = false;
  /// Client trace-clock reading when the frame was sent, for debugging
  /// one-way delay once the clock offset is known.
  std::uint64_t client_send_nanos = 0;

  bool valid() const { return trace_id != 0; }
};

/// The calling thread's current trace attribution as a wire-ready context
/// (trace id + sampling verdict from the enclosing TraceIdScope, send
/// timestamp stamped now). `valid()` is false outside any scope.
TraceContext CurrentTraceContext();

/// Stitches a client-side and a server-side Chrome trace export (both
/// produced by ExportChromeTrace) into one Perfetto-loadable timeline:
/// server timestamps are shifted by `server_clock_offset_nanos` (the
/// NTP-style estimate from the ping opcode: client_clock ≈ server_clock +
/// offset), server events are moved to pid 2 (named "ifls_server"; the
/// client keeps pid 1, named "ifls_client"), and the otherData blocks are
/// merged with server keys prefixed "server.". Returns InvalidArgument when
/// either input does not look like this repo's exporter output.
Status MergeChromeTraces(const std::string& client_json,
                         const std::string& server_json,
                         std::int64_t server_clock_offset_nanos,
                         std::string* merged);

}  // namespace ifls

#endif  // IFLS_COMMON_TRACE_H_
