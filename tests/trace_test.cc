// End-to-end coverage of the tracing subsystem (src/common/trace.h): the
// recorder's enable/sample/overflow mechanics, the bit-identity contract
// (spans never change answers), slow-query capture in the cost ledger's ring,
// Prometheus round-trips of service counters, and — the load-bearing part —
// that a Chrome trace exported from a *multi-threaded* service run parses as
// well-formed JSON with balanced B/E pairs and monotonic per-thread
// timestamps, spanning the service, solver and oracle layers.

#include "src/common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/metrics_registry.h"
#include "src/core/efficient.h"
#include "src/core/maxsum.h"
#include "src/core/mindist.h"
#include "src/index/graph_oracle.h"
#include "src/service/cost_ledger.h"
#include "src/service/service.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

// --------------------------------------------------------- mini JSON parser
//
// Just enough recursive-descent JSON to round-trip the exporter's output;
// rejecting anything malformed is the point of the test.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                              nullptr);
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          default: return false;  // exporter never emits other escapes
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return false;
    out->kind = JsonValue::kObject;
    SkipSpace();
    if (Consume('}')) return true;
    for (;;) {
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return false;
    out->kind = JsonValue::kArray;
    SkipSpace();
    if (Consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Resets the global recorder around each test so tests can't leak spans or
/// the enabled flag into each other.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }
  void TearDown() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }
};

// ------------------------------------------------------------ recorder unit

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(TraceEnabled());
  { TraceSpan span(TraceCategory::kSolver, "ignored"); }
  EXPECT_TRUE(TraceRecorder::Global().Snapshot().empty());
}

TEST_F(TraceTest, EnabledSpansRecordNameCategoryAndTimes) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  { TraceSpan span(TraceCategory::kOracle, "unit_span"); }
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "unit_span");
  EXPECT_EQ(events[0].category, TraceCategory::kOracle);
  EXPECT_EQ(events[0].trace_id, 0u);  // no enclosing TraceIdScope
  EXPECT_LE(events[0].start_nanos, events[0].end_nanos);
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST_F(TraceTest, RingOverflowDropsOldestAndCounts) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  const std::size_t n = TraceRecorder::kSlotsPerThread + 100;
  for (std::size_t i = 0; i < n; ++i) {
    recorder.Record(TraceCategory::kService, "flood", 0, i, i + 1);
  }
  const std::vector<TraceEvent> events = recorder.Snapshot();
  EXPECT_EQ(events.size(), TraceRecorder::kSlotsPerThread);
  EXPECT_GE(recorder.dropped_events(), 100u);
  // The survivors are the newest spans.
  std::uint64_t min_start = n;
  for (const TraceEvent& e : events) {
    min_start = std::min(min_start, e.start_nanos);
  }
  EXPECT_EQ(min_start, n - TraceRecorder::kSlotsPerThread);
  recorder.Clear();
  EXPECT_EQ(recorder.dropped_events(), 0u);
}

TEST_F(TraceTest, SamplingSuppressesScopedSpansOfLosingQueries) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(/*sample_every=*/2);
  EXPECT_EQ(recorder.sample_every(), 2u);
  std::vector<std::uint64_t> sampled_ids;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t id = recorder.NewTraceId();
    if (recorder.Sampled(id)) sampled_ids.push_back(id);
    TraceIdScope scope(id, recorder.Sampled(id));
    TraceSpan span(TraceCategory::kSolver, "per_query");
  }
  ASSERT_EQ(sampled_ids.size(), 2u);  // 1-in-2 of four consecutive ids
  std::vector<std::uint64_t> recorded_ids;
  for (const TraceEvent& e : recorder.Snapshot()) {
    recorded_ids.push_back(e.trace_id);
  }
  std::sort(recorded_ids.begin(), recorded_ids.end());
  EXPECT_EQ(recorded_ids, sampled_ids);
  // Spans outside any scope still record while sampling is active.
  { TraceSpan span(TraceCategory::kCompaction, "unscoped"); }
  EXPECT_EQ(recorder.Snapshot().size(), sampled_ids.size() + 1);
}

TEST_F(TraceTest, SnapshotTraceFiltersToOneQuery) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  recorder.Record(TraceCategory::kService, "a", 7, 10, 20);
  recorder.Record(TraceCategory::kSolver, "b", 7, 12, 18);
  recorder.Record(TraceCategory::kService, "c", 8, 11, 19);
  const std::vector<TraceEvent> mine = recorder.SnapshotTrace(7);
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_STREQ(mine[0].name, "a");
  EXPECT_STREQ(mine[1].name, "b");
  const std::string tree = FormatSpanTree(mine);
  EXPECT_NE(tree.find("[service] a"), std::string::npos);
  EXPECT_NE(tree.find("[solver] b"), std::string::npos);
}

TEST_F(TraceTest, SnapshotLocalTraceReadsOnlyTheCallingThreadsRing) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  recorder.Record(TraceCategory::kService, "local", 9, 10, 20);
  recorder.Record(TraceCategory::kSolver, "other_query", 10, 12, 18);
  std::thread([&recorder] {
    recorder.Record(TraceCategory::kService, "remote", 9, 11, 19);
  }).join();
  const std::vector<TraceEvent> mine = recorder.SnapshotLocalTrace(9);
  ASSERT_EQ(mine.size(), 1u);
  EXPECT_STREQ(mine[0].name, "local");
  // The cross-thread snapshot still sees both rings.
  EXPECT_EQ(recorder.SnapshotTrace(9).size(), 2u);
  std::vector<TraceEvent> none;
  std::thread([&] { none = recorder.SnapshotLocalTrace(9); }).join();
  EXPECT_TRUE(none.empty());
}

// -------------------------------------------------------------- bit identity

TEST_F(TraceTest, SolverAnswersBitIdenticalWithTracingOnAndOff) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue));
  Rng rng(3);
  FacilitySets sets = Unwrap(SelectUniformFacilities(venue, 4, 8, &rng));
  IflsContext ctx;
  ctx.oracle = &tree;
  ctx.existing = std::move(sets.existing);
  ctx.candidates = std::move(sets.candidates);
  for (int i = 0; i < 30; ++i) {
    ctx.clients.push_back(RandomClient(venue, &rng, static_cast<ClientId>(i)));
  }

  const auto solve_all = [&ctx] {
    std::vector<IflsResult> results;
    results.push_back(Unwrap(SolveEfficient(ctx)));
    results.push_back(Unwrap(SolveMinDist(ctx)));
    results.push_back(Unwrap(SolveMaxSum(ctx)));
    return results;
  };

  ASSERT_FALSE(TraceEnabled());
  const std::vector<IflsResult> off = solve_all();

  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  std::vector<IflsResult> on;
  {
    const std::uint64_t id = recorder.NewTraceId();
    TraceIdScope scope(id, recorder.Sampled(id));
    on = solve_all();
  }
  EXPECT_FALSE(recorder.Snapshot().empty());  // spans actually recorded

  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].found, on[i].found) << "solver " << i;
    EXPECT_EQ(off[i].answer, on[i].answer) << "solver " << i;
    // Bitwise equality, not NEAR: spans must never perturb the computation.
    EXPECT_EQ(off[i].objective, on[i].objective) << "solver " << i;
    EXPECT_EQ(off[i].stats.distance_computations,
              on[i].stats.distance_computations)
        << "solver " << i;
  }
}

// ----------------------------------------------------------- service export

struct TracedScenario {
  Venue venue;  // a second identical build, for the graph-oracle solve
  std::vector<PartitionId> existing;
  std::vector<PartitionId> candidates;
  std::vector<Client> clients;
  std::unique_ptr<IflsService> service;
};

TracedScenario MakeTracedScenario(const ServiceOptions& options,
                                  std::uint64_t seed = 11) {
  TracedScenario s;
  s.venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  Rng rng(seed);
  FacilitySets sets = Unwrap(SelectUniformFacilities(s.venue, 3, 6, &rng));
  s.existing = std::move(sets.existing);
  s.candidates = std::move(sets.candidates);
  std::sort(s.existing.begin(), s.existing.end());
  std::sort(s.candidates.begin(), s.candidates.end());
  for (int i = 0; i < 20; ++i) {
    s.clients.push_back(
        RandomClient(s.venue, &rng, static_cast<ClientId>(i)));
  }
  Venue copy = Unwrap(GenerateVenue(SmallVenueSpec()));
  s.service = Unwrap(IflsService::Create(std::move(copy), s.existing,
                                         s.candidates, options));
  return s;
}

TEST_F(TraceTest, ExportedChromeTraceFromThreadedServiceIsWellFormed) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();

  ServiceOptions options;
  options.num_workers = 2;
  TracedScenario s = MakeTracedScenario(options);

  // Queries on worker threads (queue_wait + snapshot_pin + solve spans).
  std::vector<std::future<ServiceReply>> pending;
  const IflsObjective objectives[] = {IflsObjective::kMinMax,
                                      IflsObjective::kMinDist,
                                      IflsObjective::kMaxSum};
  for (int i = 0; i < 9; ++i) {
    ServiceRequest request;
    request.objective = objectives[i % 3];
    request.clients = s.clients;
    pending.push_back(Unwrap(s.service->SubmitQuery(std::move(request))));
  }
  for (std::future<ServiceReply>& f : pending) {
    const ServiceReply reply = f.get();
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    EXPECT_NE(reply.trace_id, 0u);
  }

  // Mutation churn + forced compaction (kCompaction spans), net-zero so the
  // differential solve below sees the boot facility sets.
  const PartitionId toggled = s.candidates.back();
  ASSERT_TRUE(
      s.service->Mutate({MutationKind::kRemoveCandidate, toggled}).ok());
  ASSERT_TRUE(s.service->CompactNow().ok());
  ASSERT_TRUE(
      s.service->Mutate({MutationKind::kAddCandidate, toggled}).ok());
  ASSERT_TRUE(s.service->CompactNow().ok());

  // Graph-oracle differential solve: cold per-source rows force the
  // Dijkstra fallback, whose named span must land in the export.
  GraphDistanceOracle graph(&s.venue);
  IflsContext ctx;
  ctx.oracle = &graph;
  ctx.existing = s.existing;
  ctx.candidates = s.candidates;
  ctx.clients = s.clients;
  const std::uint64_t diff_id = recorder.NewTraceId();
  {
    TraceIdScope scope(diff_id, recorder.Sampled(diff_id));
    ASSERT_TRUE(SolveEfficient(ctx).ok());
  }

  s.service->Stop();  // quiesce writers before exporting

  std::ostringstream out;
  ASSERT_TRUE(recorder.ExportChromeTrace(out).ok());
  JsonValue root;
  ASSERT_TRUE(JsonParser(out.str()).Parse(&root)) << out.str().substr(0, 400);
  ASSERT_EQ(root.kind, JsonValue::kObject);
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);
  ASSERT_FALSE(events->array.empty());

  // Balanced B/E per thread, timestamps non-decreasing in emission order.
  std::map<double, int> depth_by_tid;
  std::map<double, double> last_ts_by_tid;
  std::vector<std::string> names;
  std::vector<std::string> categories;
  for (const JsonValue& e : events->array) {
    ASSERT_EQ(e.kind, JsonValue::kObject);
    const JsonValue* ph = e.Find("ph");
    const JsonValue* tid = e.Find("tid");
    const JsonValue* ts = e.Find("ts");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ph->string == "B" || ph->string == "E") << ph->string;
    int& depth = depth_by_tid[tid->number];
    if (ph->string == "B") {
      const JsonValue* name = e.Find("name");
      const JsonValue* cat = e.Find("cat");
      ASSERT_NE(name, nullptr);
      ASSERT_NE(cat, nullptr);
      names.push_back(name->string);
      categories.push_back(cat->string);
      ++depth;
    } else {
      --depth;
      ASSERT_GE(depth, 0) << "E without matching B on tid " << tid->number;
    }
    auto [it, first] = last_ts_by_tid.emplace(tid->number, ts->number);
    if (!first) {
      EXPECT_GE(ts->number, it->second) << "ts regressed on tid "
                                        << tid->number;
      it->second = ts->number;
    }
  }
  for (const auto& [tid, depth] : depth_by_tid) {
    EXPECT_EQ(depth, 0) << "unbalanced B/E on tid " << tid;
  }

  const auto seen = [&](const std::vector<std::string>& v,
                        const std::string& want) {
    return std::find(v.begin(), v.end(), want) != v.end();
  };
  EXPECT_TRUE(seen(names, "queue_wait"));
  EXPECT_TRUE(seen(names, "dijkstra_fallback"));
  std::vector<std::string> distinct = categories;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_GE(distinct.size(), 3u) << "want spans from >= 3 categories";
  EXPECT_TRUE(seen(distinct, "service"));
  EXPECT_TRUE(seen(distinct, "solver"));
  EXPECT_TRUE(seen(distinct, "oracle"));
}

TEST_F(TraceTest, PrometheusExpositionRoundTripsServiceCounters) {
  ServiceOptions options;
  options.num_workers = 0;  // deterministic inline pumping
  TracedScenario s = MakeTracedScenario(options, /*seed=*/13);

  for (int i = 0; i < 5; ++i) {
    ServiceRequest request;
    request.objective = IflsObjective::kMinMax;
    request.clients = s.clients;
    std::future<ServiceReply> f =
        Unwrap(s.service->SubmitQuery(std::move(request)));
    while (s.service->ProcessOneInline()) {
    }
    ASSERT_TRUE(f.get().status.ok());
  }

  const ServiceMetrics metrics = s.service->Metrics();
  ASSERT_EQ(metrics.completed, 5u);
  const std::string text = DumpMetricsText();

  // Exactly this instance's series (older test services unregistered on
  // destruction), with values matching the Metrics() sample.
  const auto expect_series = [&text](const std::string& name,
                                     std::uint64_t want) {
    const std::size_t pos = text.find(name + "{instance=");
    ASSERT_NE(pos, std::string::npos) << name << " missing from:\n" << text;
    const std::size_t space = text.find(' ', pos);
    ASSERT_NE(space, std::string::npos);
    EXPECT_EQ(std::strtoull(text.c_str() + space + 1, nullptr, 10), want)
        << name;
  };
  expect_series("ifls_service_submitted_total", metrics.submitted);
  expect_series("ifls_service_completed_total", metrics.completed);
  expect_series("ifls_service_shed_total", metrics.shed);
  expect_series("ifls_service_latency_seconds_count", metrics.completed);

  // The process-wide solver-work rollups saw this service's queries. The
  // leading newline skips past the family's "# TYPE ... counter" line to
  // the sample line itself.
  const std::string rollup_line = "\nifls_query_distance_computations_total ";
  const std::size_t rollup = text.find(rollup_line);
  ASSERT_NE(rollup, std::string::npos);
  EXPECT_GT(std::strtoull(text.c_str() + rollup + rollup_line.size(),
                          nullptr, 10),
            0u);
}

// ------------------------------------------------------------- slow queries

TEST_F(TraceTest, SlowQueryRingRetainsServiceQueriesWithTheirSpans) {
  TraceRecorder::Global().Enable();
  QueryCostLedger& ledger = QueryCostLedger::Global();
  ledger.Reset();
  ServiceOptions options;
  options.num_workers = 0;
  TracedScenario s = MakeTracedScenario(options, /*seed=*/17);

  const auto run = [&s](std::uint64_t trace_id) {
    ServiceRequest request;
    request.objective = IflsObjective::kMinDist;
    request.clients = s.clients;
    request.trace_id = trace_id;
    std::future<ServiceReply> f =
        Unwrap(s.service->SubmitQuery(std::move(request)));
    while (s.service->ProcessOneInline()) {
    }
    return f.get();
  };
  // A locally minted id wins the 1-in-1 draw; a propagated context whose
  // caller did not sample records no spans at all.
  const ServiceReply sampled = run(0);
  const std::uint64_t unsampled_id = std::uint64_t{1} << 62;
  const ServiceReply unsampled = run(unsampled_id);
  ASSERT_TRUE(sampled.status.ok());
  ASSERT_TRUE(unsampled.status.ok());
  ASSERT_NE(sampled.trace_id, 0u);
  ASSERT_EQ(unsampled.trace_id, unsampled_id);

  const auto records = ledger.SlowQueries();
  const auto record_of =
      [&records](std::uint64_t trace_id) -> const SlowQueryRecord* {
    for (const auto& record : records) {
      if (record->sample.trace_id == trace_id) return record.get();
    }
    return nullptr;
  };
  ASSERT_EQ(records.size(), 2u);
  const SlowQueryRecord* with_spans = record_of(sampled.trace_id);
  const SlowQueryRecord* without_spans = record_of(unsampled_id);
  ASSERT_NE(with_spans, nullptr);
  ASSERT_NE(without_spans, nullptr);
  EXPECT_EQ(with_spans->sample.objective, IflsObjective::kMinDist);
  EXPECT_EQ(with_spans->sample.solve_seconds, sampled.solve_seconds);
  EXPECT_TRUE(without_spans->spans.empty());

  const auto has_span = [with_spans](TraceCategory category,
                                     const std::string& name) {
    for (const TraceEvent& e : with_spans->spans) {
      if (e.category == category && name == e.name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_span(TraceCategory::kService, "solve"));
  EXPECT_TRUE(has_span(TraceCategory::kSolver, "mindist"));
  for (const TraceEvent& e : with_spans->spans) {
    EXPECT_EQ(e.trace_id, sampled.trace_id) << e.name;
  }
  ledger.Reset();
}

}  // namespace
}  // namespace ifls
