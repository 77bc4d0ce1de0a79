#include "src/service/cost_ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/json.h"
#include "src/index/minplus_kernels.h"

namespace ifls {

namespace {

/// Prometheus-friendly lowercase objective label ("minmax"/"mindist"/
/// "maxsum"), distinct from the display-cased IflsObjectiveName.
const char* ObjectiveLabel(IflsObjective objective) {
  switch (objective) {
    case IflsObjective::kMinMax: return "minmax";
    case IflsObjective::kMinDist: return "mindist";
    case IflsObjective::kMaxSum: return "maxsum";
  }
  return "unknown";
}

/// The ifls_query_* rollups: one series name and one QueryStats field each.
constexpr std::array<const char*, QueryCostLedger::kNumRollups> kRollupNames =
    {"ifls_query_distance_computations_total",
     "ifls_query_lower_bound_computations_total",
     "ifls_query_nn_searches_total",
     "ifls_query_clients_pruned_total",
     "ifls_query_queue_pops_total",
     "ifls_query_check_list_calls_total",
     "ifls_query_check_answer_calls_total",
     "ifls_query_cache_hits_total",
     "ifls_query_cache_misses_total"};

std::array<std::uint64_t, QueryCostLedger::kNumRollups> RollupValues(
    const QueryStats& s) {
  return {static_cast<std::uint64_t>(s.distance_computations),
          static_cast<std::uint64_t>(s.lower_bound_computations),
          static_cast<std::uint64_t>(s.nn_searches),
          static_cast<std::uint64_t>(s.clients_pruned),
          static_cast<std::uint64_t>(s.queue_pops),
          static_cast<std::uint64_t>(s.check_list_calls),
          static_cast<std::uint64_t>(s.check_answer_calls),
          s.cache_hits,
          s.cache_misses};
}

void AppendJsonDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

}  // namespace

QueryCostLedger& QueryCostLedger::Global() {
  // Leaked like TraceRecorder::Global(): worker threads may record during
  // static destruction, and the registry callbacks must stay valid until
  // their registrations die with this object.
  static QueryCostLedger* instance = new QueryCostLedger();
  return *instance;
}

QueryCostLedger::QueryCostLedger() {
  for (std::size_t i = 0; i < kNumRollups; ++i) {
    rollups_[i] = MetricsRegistry::Global().GetCounter(kRollupNames[i]);
  }
}

QueryCostLedger::Aggregate* QueryCostLedger::AggregateFor(
    const std::string& venue, IflsObjective objective, const char* tier) {
  std::string key = venue;
  key.push_back('\0');
  key += ObjectiveLabel(objective);
  key.push_back('\0');
  key += tier;

  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = aggregates_.find(key);
  if (it != aggregates_.end()) return it->second.get();

  auto aggregate = std::make_unique<Aggregate>();
  Aggregate* agg = aggregate.get();
  std::string labels = "venue=\"" + venue + "\",objective=\"" +
                       ObjectiveLabel(objective) + "\",tier=\"" + tier + "\"";
  MetricsRegistry& registry = MetricsRegistry::Global();
  // The callbacks capture `agg` raw: aggregates live until Reset(), which
  // drops every registration (callback guaranteed quiescent) first.
  agg->registrations.push_back(registry.RegisterCallbackCounter(
      "ifls_ledger_queries_total", labels, [agg]() -> std::uint64_t {
        std::lock_guard<std::mutex> l(agg->mu);
        return agg->queries;
      }));
  const auto gauge = [&](const char* name, double Aggregate::* field) {
    agg->registrations.push_back(registry.RegisterCallbackGauge(
        name, labels, [agg, field]() -> double {
          std::lock_guard<std::mutex> l(agg->mu);
          return agg->*field;
        }));
  };
  gauge("ifls_ledger_solve_seconds", &Aggregate::solve_seconds);
  gauge("ifls_ledger_queue_seconds", &Aggregate::queue_seconds);
  gauge("ifls_ledger_kernel_invocations", &Aggregate::kernel_invocations);
  gauge("ifls_ledger_compositions", &Aggregate::compositions);
  gauge("ifls_ledger_door_cache_hits", &Aggregate::door_cache_hits);
  gauge("ifls_ledger_door_cache_misses", &Aggregate::door_cache_misses);
  gauge("ifls_ledger_dijkstra_fallbacks", &Aggregate::dijkstra_fallbacks);

  it = aggregates_.emplace(std::move(key), std::move(aggregate)).first;
  return it->second.get();
}

void QueryCostLedger::RecordQuery(const QueryCostSample& sample,
                                  bool capture_spans) {
  const auto rollups = RollupValues(sample.stats);
  for (std::size_t i = 0; i < kNumRollups; ++i) rollups_[i]->Add(rollups[i]);
  const char* tier = kernels::ActiveKernelName();
  Aggregate* agg = AggregateFor(sample.venue, sample.objective, tier);
  const std::uint64_t now = TraceNowNanos();
  {
    std::lock_guard<std::mutex> lock(agg->mu);
    // Decayed-mean fold: the previous mean loses exp(-dt/tau) of its weight
    // per dt seconds of wall clock, so idle keys drift toward the newest
    // samples instead of averaging over their whole lifetime. The first
    // sample seeds the means directly.
    double w = 0.0;
    if (agg->queries > 0) {
      const double dt =
          static_cast<double>(now - agg->last_update_nanos) / 1e9;
      w = std::exp(-std::max(dt, 0.0) / kDecayTauSeconds);
    }
    const auto fold = [w](double* mean, double x) {
      *mean = w * *mean + (1.0 - w) * x;
    };
    fold(&agg->solve_seconds, sample.solve_seconds);
    fold(&agg->queue_seconds, sample.queue_seconds);
    fold(&agg->kernel_invocations,
         static_cast<double>(sample.stats.kernel_invocations));
    fold(&agg->compositions, static_cast<double>(sample.stats.matrix_lookups));
    fold(&agg->door_cache_hits, static_cast<double>(sample.stats.cache_hits));
    fold(&agg->door_cache_misses,
         static_cast<double>(sample.stats.cache_misses));
    fold(&agg->dijkstra_fallbacks,
         static_cast<double>(sample.stats.dijkstra_fallbacks));
    agg->queries += 1;
    agg->last_update_nanos = now;
  }
  OfferSlow(sample, tier, capture_spans);
}

void QueryCostLedger::OfferSlow(const QueryCostSample& sample,
                                const char* tier, bool capture_spans) {
  const double total = sample.queue_seconds + sample.solve_seconds;
  if (total <= 0.0) return;  // the empty-slot sentinel is 0

  // Lock-free admission: find the cheapest resident entry; bail without
  // allocating when this query does not beat it.
  std::size_t victim = 0;
  double victim_total = slow_ring_[0].total_seconds.load(
      std::memory_order_relaxed);
  for (std::size_t i = 1; i < kSlowRingSlots; ++i) {
    const double t = slow_ring_[i].total_seconds.load(
        std::memory_order_relaxed);
    if (t < victim_total) {
      victim = i;
      victim_total = t;
    }
  }
  if (total <= victim_total) return;
  double expected = victim_total;
  if (!slow_ring_[victim].total_seconds.compare_exchange_strong(
          expected, total, std::memory_order_acq_rel)) {
    return;  // a concurrent recorder claimed the slot; drop (best-effort)
  }

  auto record = std::make_shared<SlowQueryRecord>();
  record->sample = sample;
  record->tier = tier;
  if (capture_spans && sample.trace_id != 0) {
    record->spans = TraceRecorder::Global().SnapshotLocalTrace(sample.trace_id);
  }
  std::lock_guard<std::mutex> lock(slow_ring_[victim].mu);
  slow_ring_[victim].record = std::move(record);
}

std::vector<std::shared_ptr<const SlowQueryRecord>>
QueryCostLedger::SlowQueries() const {
  std::vector<std::shared_ptr<const SlowQueryRecord>> records;
  for (const SlowSlot& slot : slow_ring_) {
    std::shared_ptr<const SlowQueryRecord> record;
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      record = slot.record;
    }
    if (record != nullptr) records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end(),
            [](const std::shared_ptr<const SlowQueryRecord>& a,
               const std::shared_ptr<const SlowQueryRecord>& b) {
              const double ta =
                  a->sample.queue_seconds + a->sample.solve_seconds;
              const double tb =
                  b->sample.queue_seconds + b->sample.solve_seconds;
              if (ta != tb) return ta > tb;
              return a->sample.trace_id < b->sample.trace_id;
            });
  return records;
}

std::string QueryCostLedger::SlowQueriesJson() const {
  const auto records = SlowQueries();
  std::string out = "{\n  \"slow_queries\": [";
  bool first_record = true;
  for (const auto& record : records) {
    out += first_record ? "\n    {" : ",\n    {";
    first_record = false;
    const QueryCostSample& s = record->sample;
    out += "\"trace_id\": " + std::to_string(s.trace_id);
    out += ", \"parent_span_id\": " + std::to_string(s.parent_span_id);
    out += ", \"venue\": ";
    AppendJsonString(&out, s.venue);
    out += ", \"objective\": \"";
    out += ObjectiveLabel(s.objective);
    out += "\", \"tier\": ";
    AppendJsonString(&out, record->tier);
    out += ", \"queue_seconds\": ";
    AppendJsonDouble(&out, s.queue_seconds);
    out += ", \"solve_seconds\": ";
    AppendJsonDouble(&out, s.solve_seconds);
    out += ", \"stats\": {\"kernel_invocations\": " +
           std::to_string(s.stats.kernel_invocations);
    out += ", \"compositions\": " + std::to_string(s.stats.matrix_lookups);
    out += ", \"door_cache_hits\": " + std::to_string(s.stats.cache_hits);
    out += ", \"door_cache_misses\": " + std::to_string(s.stats.cache_misses);
    out += ", \"dijkstra_fallbacks\": " +
           std::to_string(s.stats.dijkstra_fallbacks);
    out += ", \"distance_computations\": " +
           std::to_string(s.stats.distance_computations);
    out += "}, \"spans\": [";
    bool first_span = true;
    for (const TraceEvent& e : record->spans) {
      out += first_span ? "\n      {" : ",\n      {";
      first_span = false;
      out += "\"name\": ";
      AppendJsonString(&out, e.name != nullptr ? e.name : "");
      out += ", \"cat\": \"";
      out += TraceCategoryName(e.category);
      out += "\", \"tid\": " + std::to_string(e.tid);
      out += ", \"start_us\": ";
      AppendJsonDouble(&out, static_cast<double>(e.start_nanos) / 1e3);
      out += ", \"dur_us\": ";
      AppendJsonDouble(&out,
                       static_cast<double>(e.end_nanos - e.start_nanos) / 1e3);
      out += "}";
    }
    out += first_span ? "]}" : "\n    ]}";
  }
  out += first_record ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void QueryCostLedger::Reset() {
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    // Drop registrations first: after each Reset() returns, its callback is
    // guaranteed not to be running, so freeing the aggregates is safe.
    for (auto& [key, aggregate] : aggregates_) {
      aggregate->registrations.clear();
    }
    aggregates_.clear();
  }
  for (SlowSlot& slot : slow_ring_) {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.record.reset();
    slot.total_seconds.store(0.0, std::memory_order_relaxed);
  }
}

}  // namespace ifls
