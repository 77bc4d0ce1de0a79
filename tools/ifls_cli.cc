// ifls_cli — command-line front end for the library, working on the text
// formats of src/io. Subcommands:
//
//   gen-venue    --preset MC|CH|CPH|MZB [--categories] --out FILE
//   gen-workload --venue FILE (--existing N --candidates N | --category C)
//                --clients N [--normal SIGMA] [--seed S] --out FILE
//   solve        --venue FILE --workload FILE
//                [--algorithm efficient|baseline|brute|mindist|maxsum]
//                [--top-k K] [--stats]
//   info         --venue FILE
//   render       --venue FILE [--workload FILE] [--level L] --out FILE.svg
//   trace        --preset MC|CH|CPH|MZB [--existing N] [--candidates N]
//                [--clients N] [--queries N] [--workers N] [--sample N]
//                [--seed S] [--metrics] --out FILE.trace.json
//   trace        --remote [HOST:]PORT [--preset MC|CH|CPH|MZB] [--queries N]
//                [--clients N] [--sample N] [--seed S] --out FILE.trace.json
//   subscribe    --preset MC|CH|CPH|MZB [--existing N] [--candidates N]
//                [--subs N] [--clients N] [--ticks N] [--tolerance T]
//                [--workers N] [--seed S] [--metrics]
//   fleet        --dir DIR [--build] [--venues N] [--rooms N] [--levels N]
//                [--existing N] [--candidates N] [--clients N] [--queries N]
//                [--budget-mb MB] [--max-resident N] [--workers N]
//                [--seed S] [--metrics]
//   serve        [--preset MC|CH|CPH|MZB] [--port P] [--workers N]
//                [--existing N] [--candidates N] [--queue N]
//                [--smoke N] [--seed S] [--metrics]
//
// `trace` runs a traced IflsService session (queries across all three
// objectives, a facility-mutation + compaction cycle, and a graph-oracle
// differential solve) and exports the spans as Chrome trace-event JSON for
// Perfetto / chrome://tracing. --metrics additionally prints the Prometheus
// text exposition of the telemetry registry. It ends by printing the worst
// query of the cost ledger's slow-query ring with its span tree.
//
// `trace --remote` instead runs a traced client session against a live
// `ifls_cli serve` process (DESIGN.md §15): it estimates the client/server
// clock offset from timestamped pings, issues traced queries whose frames
// carry the trace context, pulls the server's trace half over the wire, and
// writes ONE merged Chrome timeline — client RPC spans (pid 1) over server
// queue/solve/oracle spans (pid 2) under the same trace ids. The --preset
// and --seed must match the serve invocation (the client pool is
// regenerated locally and must be valid in the server's venue). Start the
// server with IFLS_TRACE=1 so it records its half of the spans.
//
// `subscribe` registers standing IFLS queries over trajectory-driven
// crowds, drives ticks plus a candidate-mutation/compaction cycle through
// the service, and prints every push as it is delivered: a line appears
// only when a move or mutation actually invalidated a standing answer
// beyond the tolerance — certified-fresh events are skipped silently.
//
// `fleet` is the multi-venue serving demo (DESIGN.md §12). With --build it
// first generates N distinct synthetic venues, builds their VIP-trees and
// writes a fleet snapshot directory (v3 mmap images + facility sets) under
// --dir. It then opens a VenueRouter over the directory — optionally under
// a resident-memory budget (--budget-mb / --max-resident, which force LRU
// eviction of cold venues) — and round-robins queries across the whole
// fleet, printing per-venue residency and router totals. Every routed
// answer is differentially checked, bit for bit, against the same request
// solved on a heap-built tree of that venue: the router serves the mapped
// v3 images, whose iMinD(p, n) bounds come from the persisted table, so a
// mismatch exits 1.
//
// `serve` starts the binary wire-protocol server (DESIGN.md §13) over a
// preset-backed service on a loopback TCP port (--port 0 picks one and
// prints it) and serves until SIGINT/SIGTERM. --queue N bounds the
// server's dispatch queue, the one admission point of networked queries
// (overflow is answered kUnavailable). --smoke N instead runs an
// N-query loopback self-test — every wire answer differentially checked
// against the same in-process service — and exits, which is what CI runs.
//
// Exit code 0 on success, 1 on any error (message on stderr).

#include <csignal>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics_registry.h"
#include "src/common/trace.h"
#include "src/core/brute_force.h"
#include "src/core/efficient.h"
#include "src/core/maxsum.h"
#include "src/core/mindist.h"
#include "src/core/minmax_baseline.h"
#include "src/datasets/presets.h"
#include "src/datasets/trajectory_generator.h"
#include "src/datasets/venue_generator.h"
#include "src/datasets/workload.h"
#include "src/index/graph_oracle.h"
#include "src/index/minplus_kernels.h"
#include "src/index/vip_tree.h"
#include "src/io/svg_export.h"
#include "src/io/venue_io.h"
#include "src/io/workload_io.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/service/cost_ledger.h"
#include "src/service/fleet_store.h"
#include "src/service/service.h"
#include "src/service/venue_router.h"

namespace ifls {
namespace {

/// Tiny flag parser: --name value pairs plus boolean --name flags.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
        ok_ = false;
        return;
      }
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::optional<std::string> Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string GetOr(const std::string& key, const std::string& fallback) const {
    return Get(key).value_or(fallback);
  }
  long GetInt(const std::string& key, long fallback) const {
    auto v = Get(key);
    return v.has_value() ? std::strtol(v->c_str(), nullptr, 10) : fallback;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto v = Get(key);
    return v.has_value() ? std::strtod(v->c_str(), nullptr) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Fail(const char* message) {
  std::fprintf(stderr, "error: %s\n", message);
  return 1;
}

std::optional<VenuePreset> ParsePreset(const std::string& name) {
  for (VenuePreset preset : AllVenuePresets()) {
    if (name == VenuePresetName(preset)) return preset;
  }
  return std::nullopt;
}

int GenVenue(const Args& args) {
  const auto preset_name = args.Get("preset");
  const auto out = args.Get("out");
  if (!preset_name || !out) return Fail("gen-venue needs --preset and --out");
  const auto preset = ParsePreset(*preset_name);
  if (!preset) return Fail("unknown preset (use MC, CH, CPH or MZB)");
  Result<Venue> venue = BuildPresetVenue(*preset);
  if (!venue.ok()) return Fail(venue.status());
  if (args.Has("categories")) {
    if (*preset != VenuePreset::kMelbourneCentral) {
      return Fail("--categories is defined for MC only");
    }
    if (Status s = AssignMelbourneCentralCategories(&venue.value()); !s.ok()) {
      return Fail(s);
    }
  }
  if (Status s = SaveVenueToFile(*venue, *out); !s.ok()) return Fail(s);
  std::printf("wrote %s: %s\n", out->c_str(), venue->ToString().c_str());
  return 0;
}

int GenWorkload(const Args& args) {
  const auto venue_path = args.Get("venue");
  const auto out = args.Get("out");
  if (!venue_path || !out) {
    return Fail("gen-workload needs --venue and --out");
  }
  Result<Venue> venue = LoadVenueFromFile(*venue_path);
  if (!venue.ok()) return Fail(venue.status());
  Rng rng(static_cast<std::uint64_t>(args.GetInt("seed", 1)));

  WorkloadData data;
  if (args.Has("category")) {
    Result<FacilitySets> sets =
        SelectCategoryFacilities(*venue, args.GetOr("category", ""));
    if (!sets.ok()) return Fail(sets.status());
    data.facilities = std::move(sets).value();
  } else {
    Result<FacilitySets> sets = SelectUniformFacilities(
        *venue, static_cast<std::size_t>(args.GetInt("existing", 10)),
        static_cast<std::size_t>(args.GetInt("candidates", 20)), &rng);
    if (!sets.ok()) return Fail(sets.status());
    data.facilities = std::move(sets).value();
  }
  ClientGeneratorOptions copts;
  if (args.Has("normal")) {
    copts.distribution = ClientDistribution::kNormal;
    copts.sigma = args.GetDouble("normal", 1.0);
  }
  data.clients = GenerateClients(
      *venue, static_cast<std::size_t>(args.GetInt("clients", 1000)), copts,
      &rng);
  if (Status s = SaveWorkloadToFile(data, *out); !s.ok()) return Fail(s);
  std::printf("wrote %s: |Fe|=%zu |Fn|=%zu |C|=%zu\n", out->c_str(),
              data.facilities.existing.size(),
              data.facilities.candidates.size(), data.clients.size());
  return 0;
}

int Solve(const Args& args) {
  const auto venue_path = args.Get("venue");
  const auto workload_path = args.Get("workload");
  if (!venue_path || !workload_path) {
    return Fail("solve needs --venue and --workload");
  }
  Result<Venue> venue = LoadVenueFromFile(*venue_path);
  if (!venue.ok()) return Fail(venue.status());
  Result<WorkloadData> workload = LoadWorkloadFromFile(*workload_path);
  if (!workload.ok()) return Fail(workload.status());
  Result<VipTree> tree = VipTree::Build(&venue.value());
  if (!tree.ok()) return Fail(tree.status());

  IflsContext ctx;
  ctx.oracle = &tree.value();
  ctx.existing = workload->facilities.existing;
  ctx.candidates = workload->facilities.candidates;
  ctx.clients = workload->clients;

  const std::string algorithm = args.GetOr("algorithm", "efficient");
  const int top_k = static_cast<int>(args.GetInt("top-k", 1));
  Result<IflsResult> result = Status::Internal("unset");
  if (algorithm == "efficient") {
    EfficientOptions options;
    options.top_k = top_k;
    result = SolveEfficient(ctx, options);
  } else if (algorithm == "baseline") {
    result = SolveModifiedMinMax(ctx);
  } else if (algorithm == "brute") {
    result = top_k > 1 ? SolveBruteForceTopKMinMax(ctx, top_k)
                       : SolveBruteForceMinMax(ctx);
  } else if (algorithm == "mindist") {
    result = SolveMinDist(ctx);
  } else if (algorithm == "maxsum") {
    result = SolveMaxSum(ctx);
  } else {
    return Fail("unknown --algorithm");
  }
  if (!result.ok()) return Fail(result.status());

  if (!result->found) {
    std::printf("no candidate improves the objective\n");
  } else if (!result->ranked.empty()) {
    for (std::size_t i = 0; i < result->ranked.size(); ++i) {
      std::printf("#%zu: partition %d (objective %.4f)\n", i + 1,
                  result->ranked[i].first, result->ranked[i].second);
    }
  } else {
    std::printf("answer: partition %d (objective %.4f)\n", result->answer,
                result->objective);
  }
  if (args.Has("stats")) {
    std::printf("%s\n", result->stats.ToString().c_str());
  }
  return 0;
}

int Info(const Args& args) {
  const auto venue_path = args.Get("venue");
  if (!venue_path) return Fail("info needs --venue");
  Result<Venue> venue = LoadVenueFromFile(*venue_path);
  if (!venue.ok()) return Fail(venue.status());
  std::printf("%s\n", venue->ToString().c_str());
  Result<VipTree> tree = VipTree::Build(&venue.value());
  if (!tree.ok()) return Fail(tree.status());
  std::printf("%s\n", tree->ToString().c_str());
  std::map<std::string, int> categories;
  for (const Partition& p : venue->partitions()) {
    if (!p.category.empty()) ++categories[p.category];
  }
  for (const auto& [name, count] : categories) {
    std::printf("  category '%s': %d partitions\n", name.c_str(), count);
  }
  return 0;
}

int Render(const Args& args) {
  const auto venue_path = args.Get("venue");
  const auto out = args.Get("out");
  if (!venue_path || !out) return Fail("render needs --venue and --out");
  Result<Venue> venue = LoadVenueFromFile(*venue_path);
  if (!venue.ok()) return Fail(venue.status());
  SvgOptions options;
  options.level = static_cast<Level>(args.GetInt("level", 0));
  options.label_partitions = args.Has("labels");
  if (args.Has("workload")) {
    Result<WorkloadData> workload =
        LoadWorkloadFromFile(args.GetOr("workload", ""));
    if (!workload.ok()) return Fail(workload.status());
    options.existing_facilities = workload->facilities.existing;
    options.candidate_locations = workload->facilities.candidates;
    options.clients = workload->clients;
  }
  if (Status s = RenderLevelSvgToFile(*venue, options, *out); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s\n", out->c_str());
  return 0;
}

/// `trace --remote`: a traced client session against a live server, merged
/// into one Chrome timeline. See the usage comment at the top of the file.
int TraceRemote(const Args& args) {
  const auto out = args.Get("out");
  if (!out) return Fail("trace needs --out");
  const std::string remote = args.GetOr("remote", "");
  const std::size_t colon = remote.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? remote : remote.substr(colon + 1);
  const long port = std::strtol(port_text.c_str(), nullptr, 10);
  if (port <= 0 || port > 65535) {
    return Fail("trace --remote needs [HOST:]PORT (loopback serving only)");
  }
  const auto preset = ParsePreset(args.GetOr("preset", "MC"));
  if (!preset) return Fail("unknown preset (use MC, CH, CPH or MZB)");
  const int queries = static_cast<int>(args.GetInt("queries", 9));
  if (queries < 1) return Fail("--queries must be >= 1");

  // The client pool must lie inside the server's venue; preset + seed
  // rebuild it bit-identically to what `serve` constructed.
  Result<Venue> venue = BuildPresetVenue(*preset);
  if (!venue.ok()) return Fail(venue.status());
  Rng rng(static_cast<std::uint64_t>(args.GetInt("seed", 1)) ^ 0x51ed2701u);
  const std::vector<Client> clients = GenerateClients(
      *venue, static_cast<std::size_t>(args.GetInt("clients", 64)), {}, &rng);

  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable(static_cast<std::uint32_t>(args.GetInt("sample", 1)));

  Result<std::unique_ptr<IflsClient>> client =
      IflsClient::Connect(static_cast<std::uint16_t>(port));
  if (!client.ok()) return Fail(client.status());

  // Timestamped pings pin the server's trace clock to ours before any
  // query traffic disturbs the loop thread.
  Result<std::int64_t> offset = (*client)->EstimateClockOffset();
  if (!offset.ok()) return Fail(offset.status());

  const IflsObjective kObjectives[] = {
      IflsObjective::kMinMax, IflsObjective::kMinDist, IflsObjective::kMaxSum};
  int sampled_queries = 0;
  for (int i = 0; i < queries; ++i) {
    WireQueryRequest request;
    request.clients = clients;
    // One trace id per RPC; the scope makes IflsClient::Query attach the
    // context to the frame, so the server half adopts the same id and the
    // same sampling verdict.
    const std::uint64_t trace_id = recorder.NewTraceId();
    const bool sampled = recorder.Sampled(trace_id);
    TraceIdScope scope(trace_id, sampled);
    Result<WireQueryResponse> response =
        (*client)->Query(kObjectives[i % 3], request);
    if (!response.ok()) return Fail(response.status());
    if (sampled) ++sampled_queries;
  }

  Result<std::string> server_json = (*client)->PullTrace();
  if (!server_json.ok()) return Fail(server_json.status());

  std::ostringstream client_json;
  if (Status s = recorder.ExportChromeTrace(client_json); !s.ok()) {
    return Fail(s);
  }
  recorder.Disable();

  std::string merged;
  if (Status s = MergeChromeTraces(client_json.str(), *server_json, *offset,
                                   &merged);
      !s.ok()) {
    return Fail(s);
  }
  std::FILE* file = std::fopen(out->c_str(), "wb");
  if (file == nullptr) {
    return Fail(Status::Internal("cannot open " + *out + " for writing"));
  }
  const std::size_t written =
      std::fwrite(merged.data(), 1, merged.size(), file);
  std::fclose(file);
  if (written != merged.size()) {
    return Fail(Status::Internal("short write to " + *out));
  }

  std::printf(
      "wrote %s: merged client+server trace, %d queries (%d sampled), "
      "clock offset %+.3fms\n",
      out->c_str(), queries, sampled_queries,
      static_cast<double>(*offset) / 1e6);
  return 0;
}

int Trace(const Args& args) {
  if (args.Has("remote")) return TraceRemote(args);
  const auto out = args.Get("out");
  if (!out) return Fail("trace needs --out");
  const auto preset = ParsePreset(args.GetOr("preset", "MC"));
  if (!preset) return Fail("unknown preset (use MC, CH, CPH or MZB)");
  const int queries = static_cast<int>(args.GetInt("queries", 12));
  if (queries < 1) return Fail("--queries must be >= 1");

  // Built twice on purpose: preset construction is deterministic, so the
  // second build gives the graph-oracle differential solve an identical
  // venue without copying the one the service takes ownership of.
  Result<Venue> venue = BuildPresetVenue(*preset);
  if (!venue.ok()) return Fail(venue.status());
  Result<Venue> graph_venue = BuildPresetVenue(*preset);
  if (!graph_venue.ok()) return Fail(graph_venue.status());

  Rng rng(static_cast<std::uint64_t>(args.GetInt("seed", 1)));
  Result<FacilitySets> sets = SelectUniformFacilities(
      *venue, static_cast<std::size_t>(args.GetInt("existing", 8)),
      static_cast<std::size_t>(args.GetInt("candidates", 16)), &rng);
  if (!sets.ok()) return Fail(sets.status());
  const std::vector<Client> clients = GenerateClients(
      *venue, static_cast<std::size_t>(args.GetInt("clients", 400)), {}, &rng);

  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable(static_cast<std::uint32_t>(args.GetInt("sample", 1)));

  ServiceOptions options;
  options.num_workers = static_cast<int>(args.GetInt("workers", 0));
  Result<std::unique_ptr<IflsService>> service = IflsService::Create(
      std::move(venue).value(), sets->existing, sets->candidates, options);
  if (!service.ok()) return Fail(service.status());
  IflsService& svc = **service;

  const IflsObjective kObjectives[] = {
      IflsObjective::kMinMax, IflsObjective::kMinDist, IflsObjective::kMaxSum};

  // Phase 1: the query mix. In admission-only mode (--workers 0) the queue
  // is pumped inline, which keeps the run single-threaded and deterministic
  // for CI smokes; with workers the futures resolve concurrently.
  std::vector<std::future<ServiceReply>> pending;
  pending.reserve(static_cast<std::size_t>(queries));
  for (int i = 0; i < queries; ++i) {
    ServiceRequest request;
    request.objective = kObjectives[i % 3];
    request.clients = clients;
    Result<std::future<ServiceReply>> submitted =
        svc.SubmitQuery(std::move(request));
    if (!submitted.ok()) return Fail(submitted.status());
    pending.push_back(std::move(submitted).value());
    if (options.num_workers == 0) {
      while (svc.ProcessOneInline()) {
      }
    }
  }
  for (std::future<ServiceReply>& f : pending) {
    const ServiceReply reply = f.get();
    if (!reply.status.ok()) return Fail(reply.status);
  }

  // Phase 2: toggle one candidate through the overlay and compact after
  // each step, so the export carries mutation-epoch service spans plus one
  // `compaction` span per fold. The second compaction restores the boot
  // facility sets.
  const PartitionId toggled = sets->candidates.back();
  if (Status s = svc.Mutate({MutationKind::kRemoveCandidate, toggled});
      !s.ok()) {
    return Fail(s);
  }
  if (Status s = svc.CompactNow(); !s.ok()) return Fail(s);
  if (Status s = svc.Mutate({MutationKind::kAddCandidate, toggled}); !s.ok()) {
    return Fail(s);
  }
  if (Status s = svc.CompactNow(); !s.ok()) return Fail(s);

  // Phase 3: one MinMax reply from the compacted snapshot, to certify the
  // differential solve against.
  ServiceRequest final_request;
  final_request.objective = IflsObjective::kMinMax;
  final_request.clients = clients;
  Result<std::future<ServiceReply>> final_submitted =
      svc.SubmitQuery(std::move(final_request));
  if (!final_submitted.ok()) return Fail(final_submitted.status());
  if (options.num_workers == 0) {
    while (svc.ProcessOneInline()) {
    }
  }
  const ServiceReply service_reply = final_submitted->get();
  if (!service_reply.status.ok()) return Fail(service_reply.status);
  svc.Drain();

  // Differential solve on the door-graph oracle: exercises the Dijkstra
  // fallback (so the export carries its named span) and cross-checks the
  // service's answer on an independent distance backend.
  std::vector<PartitionId> effective_existing;
  std::vector<PartitionId> effective_candidates;
  {
    const std::shared_ptr<const ServingState> state = svc.AcquireState();
    effective_existing = state->effective_existing;
    effective_candidates = state->effective_candidates;
  }
  GraphDistanceOracle graph(&graph_venue.value());
  IflsContext ctx;
  ctx.oracle = &graph;
  ctx.existing = std::move(effective_existing);
  ctx.candidates = std::move(effective_candidates);
  ctx.clients = clients;
  const std::uint64_t diff_id = recorder.NewTraceId();
  Result<IflsResult> diff = Status::Internal("differential solve did not run");
  {
    TraceIdScope scope(diff_id, recorder.Sampled(diff_id));
    TraceSpan span(TraceCategory::kService, "differential_solve");
    diff = SolveEfficient(ctx);
  }
  if (!diff.ok()) return Fail(diff.status());
  const double service_objective = service_reply.result.objective;
  const double graph_objective = diff->objective;
  const double scale = std::max(
      {std::fabs(service_objective), std::fabs(graph_objective), 1.0});
  if (std::fabs(service_objective - graph_objective) > 1e-6 * scale) {
    std::fprintf(stderr,
                 "error: differential mismatch: VIP-tree MinMax objective "
                 "%.9f vs graph-oracle %.9f\n",
                 service_objective, graph_objective);
    return 1;
  }

  svc.Stop();
  if (Status s = recorder.ExportChromeTraceToFile(*out); !s.ok()) {
    return Fail(s);
  }

  const std::vector<TraceEvent> spans = recorder.Snapshot();
  bool seen[kNumTraceCategories] = {};
  for (const TraceEvent& e : spans) {
    seen[static_cast<int>(e.category)] = true;
  }
  std::string categories;
  for (int c = 0; c < kNumTraceCategories; ++c) {
    if (!seen[c]) continue;
    if (!categories.empty()) categories += ",";
    categories += TraceCategoryName(static_cast<TraceCategory>(c));
  }
  std::printf(
      "wrote %s: %zu spans (categories %s, dropped %llu), "
      "MinMax answer partition %d objective %.4f (graph oracle agrees)\n",
      out->c_str(), spans.size(), categories.c_str(),
      static_cast<unsigned long long>(recorder.dropped_events()),
      service_reply.result.answer, service_objective);
  if (args.Has("metrics")) {
    std::printf("%s", DumpMetricsText().c_str());
  }
  const auto slow = QueryCostLedger::Global().SlowQueries();
  if (!slow.empty()) {
    const SlowQueryRecord& worst = *slow.front();
    std::printf(
        "slowest query: trace_id=%llu objective=%s queue=%.3fms "
        "solve=%.3fms tier=%s%s\n",
        static_cast<unsigned long long>(worst.sample.trace_id),
        IflsObjectiveName(worst.sample.objective),
        worst.sample.queue_seconds * 1e3, worst.sample.solve_seconds * 1e3,
        worst.tier.c_str(),
        worst.spans.empty() ? " (not sampled)"
                            : FormatSpanTree(worst.spans).c_str());
  }
  recorder.Disable();
  return 0;
}

int Subscribe(const Args& args) {
  const auto preset = ParsePreset(args.GetOr("preset", "MC"));
  if (!preset) return Fail("unknown preset (use MC, CH, CPH or MZB)");
  const std::size_t num_subs =
      static_cast<std::size_t>(args.GetInt("subs", 4));
  const std::size_t clients_per_sub =
      static_cast<std::size_t>(args.GetInt("clients", 6));
  const std::size_t ticks = static_cast<std::size_t>(args.GetInt("ticks", 20));
  const double tolerance = args.GetDouble("tolerance", 0.0);
  if (num_subs < 1 || clients_per_sub < 1 || ticks < 1) {
    return Fail("--subs, --clients and --ticks must be >= 1");
  }

  // Built twice, as in `trace`: preset construction is deterministic, so
  // the second build drives the trajectory generator while the service owns
  // the first.
  Result<Venue> venue = BuildPresetVenue(*preset);
  if (!venue.ok()) return Fail(venue.status());
  Result<Venue> walk_venue = BuildPresetVenue(*preset);
  if (!walk_venue.ok()) return Fail(walk_venue.status());
  Result<VipTree> walk_tree = VipTree::Build(&walk_venue.value());
  if (!walk_tree.ok()) return Fail(walk_tree.status());

  Rng rng(static_cast<std::uint64_t>(args.GetInt("seed", 1)));
  Result<FacilitySets> sets = SelectUniformFacilities(
      *venue, static_cast<std::size_t>(args.GetInt("existing", 40)),
      static_cast<std::size_t>(args.GetInt("candidates", 12)), &rng);
  if (!sets.ok()) return Fail(sets.status());

  TrajectoryOptions topts;
  topts.ticks = ticks + 1;
  Result<std::vector<Trajectory>> traj = GenerateTrajectories(
      *walk_tree, num_subs * clients_per_sub, topts, &rng);
  if (!traj.ok()) return Fail(traj.status());

  ServiceOptions options;
  options.num_workers = static_cast<int>(args.GetInt("workers", 0));
  Result<std::unique_ptr<IflsService>> service = IflsService::Create(
      std::move(venue).value(), sets->existing, sets->candidates, options);
  if (!service.ok()) return Fail(service.status());
  IflsService& svc = **service;

  std::printf("subscribe demo: %zu standing queries x %zu clients, %zu "
              "ticks, tolerance %g (|Fe|=%zu |Fn|=%zu)\n",
              num_subs, clients_per_sub, ticks, tolerance,
              sets->existing.size(), sets->candidates.size());

  std::mutex print_mu;
  std::vector<std::shared_ptr<Subscription>> subs;
  subs.reserve(num_subs);
  for (std::size_t s = 0; s < num_subs; ++s) {
    std::vector<Client> clients;
    for (std::size_t c = 0; c < clients_per_sub; ++c) {
      const TrajectoryPoint& p = (*traj)[s * clients_per_sub + c][0];
      clients.push_back(
          Client{static_cast<ClientId>(c), p.position, p.partition});
    }
    SubscriptionOptions sopts;
    sopts.tolerance = tolerance;
    Result<std::shared_ptr<Subscription>> sub = svc.Subscribe(
        clients, sopts, [s, &print_mu](const SubscriptionPush& push) {
          std::lock_guard<std::mutex> lock(print_mu);
          if (push.result.found) {
            std::printf("  sub %zu push #%llu (version %llu, ticks %llu): "
                        "partition %d objective %.4f\n",
                        s, static_cast<unsigned long long>(push.sequence),
                        static_cast<unsigned long long>(push.version),
                        static_cast<unsigned long long>(push.ticks_applied),
                        push.result.answer, push.result.objective);
          } else {
            std::printf("  sub %zu push #%llu (version %llu, ticks %llu): "
                        "no candidate improves objective %.4f\n",
                        s, static_cast<unsigned long long>(push.sequence),
                        static_cast<unsigned long long>(push.version),
                        static_cast<unsigned long long>(push.ticks_applied),
                        push.result.objective);
          }
        });
    if (!sub.ok()) return Fail(sub.status());
    subs.push_back(std::move(*sub));
  }

  // Drive the fleet: one client of every subscription moves per tick; a
  // candidate is removed a third of the way in (its standing answers must
  // re-solve), the overlay is compacted, and the candidate returns later —
  // subscriptions ride across the snapshot rebase without losing state.
  const PartitionId toggled = sets->candidates.back();
  for (std::size_t t = 1; t <= ticks; ++t) {
    if (t == ticks / 3 + 1) {
      std::printf("tick %zu: remove candidate %d + compact\n", t, toggled);
      if (Status s = svc.Mutate({MutationKind::kRemoveCandidate, toggled});
          !s.ok()) {
        return Fail(s);
      }
      if (Status s = svc.CompactNow(); !s.ok()) return Fail(s);
    } else if (t == 2 * ticks / 3 + 1) {
      std::printf("tick %zu: re-add candidate %d\n", t, toggled);
      if (Status s = svc.Mutate({MutationKind::kAddCandidate, toggled});
          !s.ok()) {
        return Fail(s);
      }
    }
    for (std::size_t s = 0; s < num_subs; ++s) {
      const std::size_t c = (t - 1 + s) % clients_per_sub;
      const TrajectoryPoint& p = (*traj)[s * clients_per_sub + c][t];
      if (Status status = svc.TickSubscription(
              subs[s]->id(), static_cast<ClientId>(c), p.position,
              p.partition);
          !status.ok()) {
        return Fail(status);
      }
    }
  }
  svc.Drain();

  std::printf("final standing answers:\n");
  for (std::size_t s = 0; s < num_subs; ++s) {
    const Subscription::State state = subs[s]->Current();
    if (state.has_answer) {
      std::printf("  sub %zu: partition %d objective %.4f", s, state.answer,
                  state.objective);
    } else {
      std::printf("  sub %zu: no improving candidate", s);
    }
    std::printf(" (version %llu, ticks %llu, pushes %llu, solves %lld, "
                "skips %lld)\n",
                static_cast<unsigned long long>(state.version),
                static_cast<unsigned long long>(state.ticks_applied),
                static_cast<unsigned long long>(state.pushes),
                static_cast<long long>(state.solves),
                static_cast<long long>(state.skips));
  }
  const ServiceMetrics metrics = svc.Metrics();
  std::printf("service: %llu events, %llu pushes, %llu solves, %llu skips, "
              "%llu compactions\n",
              static_cast<unsigned long long>(metrics.subscription_events),
              static_cast<unsigned long long>(metrics.subscription_pushes),
              static_cast<unsigned long long>(metrics.subscription_solves),
              static_cast<unsigned long long>(metrics.subscription_skips),
              static_cast<unsigned long long>(metrics.compactions));
  for (std::size_t s = 0; s < num_subs; ++s) {
    if (Status status = svc.Unsubscribe(subs[s]->id()); !status.ok()) {
      return Fail(status);
    }
  }
  if (args.Has("metrics")) {
    std::printf("%s", DumpMetricsText().c_str());
  }
  return 0;
}

int Fleet(const Args& args) {
  const auto dir = args.Get("dir");
  if (!dir) return Fail("fleet needs --dir");
  const int num_venues = static_cast<int>(args.GetInt("venues", 4));
  const std::size_t clients_per_query =
      static_cast<std::size_t>(args.GetInt("clients", 200));
  const int queries = static_cast<int>(args.GetInt("queries", 24));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.GetInt("seed", 1));
  if (num_venues < 1 || queries < 1) {
    return Fail("--venues and --queries must be >= 1");
  }

  if (args.Has("build")) {
    // Venue i differs in size and door jitter, so the fleet exercises
    // different index shapes rather than N copies of one snapshot.
    const int base_rooms = static_cast<int>(args.GetInt("rooms", 120));
    const int levels = static_cast<int>(args.GetInt("levels", 2));
    for (int i = 0; i < num_venues; ++i) {
      char id[16];
      std::snprintf(id, sizeof(id), "v%03d", i);
      VenueGeneratorSpec spec;
      spec.name = id;
      spec.levels = levels;
      spec.total_rooms = base_rooms + 10 * (i % 4);
      spec.door_jitter_seed = seed + static_cast<std::uint64_t>(i);
      Result<Venue> venue = GenerateVenue(spec);
      if (!venue.ok()) return Fail(venue.status());
      Result<VipTree> tree =
          VipTree::Build(&venue.value(), DefaultServiceTreeOptions());
      if (!tree.ok()) return Fail(tree.status());
      Rng rng(seed + static_cast<std::uint64_t>(i));
      Result<FacilitySets> sets = SelectUniformFacilities(
          *venue, static_cast<std::size_t>(args.GetInt("existing", 8)),
          static_cast<std::size_t>(args.GetInt("candidates", 16)), &rng);
      if (!sets.ok()) return Fail(sets.status());
      const std::string venue_dir = *dir + "/" + id;
      if (Status s = WriteVenueSnapshot(venue_dir, *venue, *tree,
                                        sets->existing, sets->candidates);
          !s.ok()) {
        return Fail(s);
      }
      std::printf("built %s: %s\n", venue_dir.c_str(),
                  venue->ToString().c_str());
    }
  }

  VenueRouterOptions ropts;
  ropts.memory_budget_bytes =
      static_cast<std::size_t>(args.GetInt("budget-mb", 0)) * (1 << 20);
  ropts.max_resident_venues =
      static_cast<std::size_t>(args.GetInt("max-resident", 0));
  ropts.service.num_workers = static_cast<int>(args.GetInt("workers", 2));
  Result<std::unique_ptr<VenueRouter>> router = VenueRouter::Open(*dir, ropts);
  if (!router.ok()) return Fail(router.status());
  const std::vector<std::string> ids = (*router)->venue_ids();
  std::printf("fleet %s: %zu venues (budget %ld MiB, max resident %zu)\n",
              dir->c_str(), ids.size(), args.GetInt("budget-mb", 0),
              ropts.max_resident_venues);

  // Round-robin the fleet. Client sets are generated per venue (partition
  // ids are venue-local) and reused across that venue's queries. Each
  // venue also gets a reference service over a heap-built tree of the
  // snapshot's venue, options and facility sets, which answers every
  // routed request a second time for the differential check.
  const IflsObjective kObjectives[] = {
      IflsObjective::kMinMax, IflsObjective::kMinDist, IflsObjective::kMaxSum};
  struct FleetVenue {
    std::vector<Client> clients;
    std::unique_ptr<IflsService> reference;
  };
  std::map<std::string, FleetVenue> fleet_venues;
  for (int q = 0; q < queries; ++q) {
    const std::string& id = ids[static_cast<std::size_t>(q) % ids.size()];
    auto it = fleet_venues.find(id);
    if (it == fleet_venues.end()) {
      Result<LoadedVenueSnapshot> snapshot =
          LoadVenueSnapshot(*dir + "/" + id, SnapshotLoadMode::kMmap);
      if (!snapshot.ok()) return Fail(snapshot.status());
      ServiceOptions reference_options;
      reference_options.num_workers = 1;
      reference_options.tree = snapshot->tree->options();
      Result<VipTree> heap =
          VipTree::Build(snapshot->venue.get(), reference_options.tree);
      if (!heap.ok()) return Fail(heap.status());
      Result<std::unique_ptr<IflsService>> reference =
          IflsService::CreateFromParts(
              snapshot->venue,
              std::make_shared<const VipTree>(std::move(heap).value()),
              snapshot->existing, snapshot->candidates, reference_options);
      if (!reference.ok()) return Fail(reference.status());
      Rng rng(seed ^ std::hash<std::string>{}(id));
      FleetVenue entry;
      entry.clients =
          GenerateClients(*snapshot->venue, clients_per_query, {}, &rng);
      entry.reference = std::move(reference).value();
      it = fleet_venues.emplace(id, std::move(entry)).first;
    }
    ServiceRequest request;
    request.objective = kObjectives[q % 3];
    request.clients = it->second.clients;
    ServiceRequest truth = request;
    const ServiceReply reply = (*router)->Query(id, std::move(request));
    if (!reply.status.ok()) return Fail(reply.status);
    const ServiceReply expected =
        it->second.reference->Query(std::move(truth));
    if (!expected.status.ok()) return Fail(expected.status);
    if (reply.result.found != expected.result.found ||
        reply.result.answer != expected.result.answer ||
        std::memcmp(&reply.result.objective, &expected.result.objective,
                    sizeof(double)) != 0) {
      return Fail(("fleet: routed answer for " + id +
                   " differs from a heap-built tree of the venue")
                      .c_str());
    }
    if (reply.result.found) {
      std::printf("  %s %s: partition %d objective %.4f\n", id.c_str(),
                  IflsObjectiveName(request.objective), reply.result.answer,
                  reply.result.objective);
    } else {
      std::printf("  %s %s: no improving candidate\n", id.c_str(),
                  IflsObjectiveName(request.objective));
    }
  }

  std::printf("fleet differential ok: %d routed answers bit-identical to "
              "heap-built trees\n",
              queries);

  for (const VenueEntryStats& s : (*router)->VenueStats()) {
    std::printf("venue %s: %s, %.2f MiB resident, %.2f MiB mapped, "
                "%llu loads, %llu evictions\n",
                s.venue_id.c_str(), s.resident ? "resident" : "cold",
                s.resident_bytes / (1024.0 * 1024.0),
                s.mapped_bytes / (1024.0 * 1024.0),
                static_cast<unsigned long long>(s.loads),
                static_cast<unsigned long long>(s.evictions));
  }
  const VenueRouterMetrics m = (*router)->Metrics();
  std::printf("router: %llu loads, %llu hits, %llu evictions, %zu/%zu "
              "resident, %.2f MiB resident, %.2f MiB mapped\n",
              static_cast<unsigned long long>(m.loads),
              static_cast<unsigned long long>(m.hits),
              static_cast<unsigned long long>(m.evictions),
              m.resident_venues, m.known_venues,
              m.resident_bytes / (1024.0 * 1024.0),
              m.mapped_bytes / (1024.0 * 1024.0));
  if (args.Has("metrics")) {
    std::printf("%s", DumpMetricsText().c_str());
  }
  return 0;
}

/// Builds the preset-backed service the network commands serve. The venue,
/// facility sets and client pool are deterministic for a given seed, so a
/// `serve --smoke` differential check has stable ground truth.
Result<std::shared_ptr<IflsService>> BuildServeService(const Args& args) {
  const auto preset = ParsePreset(args.GetOr("preset", "MC"));
  if (!preset) return Status::InvalidArgument("unknown preset");
  Result<Venue> venue = BuildPresetVenue(*preset);
  if (!venue.ok()) return venue.status();
  Rng rng(static_cast<std::uint64_t>(args.GetInt("seed", 1)));
  Result<FacilitySets> sets = SelectUniformFacilities(
      *venue, static_cast<std::size_t>(args.GetInt("existing", 8)),
      static_cast<std::size_t>(args.GetInt("candidates", 16)), &rng);
  if (!sets.ok()) return sets.status();
  ServiceOptions options;
  options.num_workers = static_cast<int>(args.GetInt("workers", 2));
  // The preset name doubles as the cost-ledger venue label, so the served
  // ifls_ledger_* series carry venue="MC" etc. out of the box.
  options.venue_label = args.GetOr("preset", "MC");
  Result<std::unique_ptr<IflsService>> service = IflsService::Create(
      std::move(venue).value(), sets->existing, sets->candidates, options);
  if (!service.ok()) return service.status();
  return std::shared_ptr<IflsService>(std::move(service).value());
}

int Serve(const Args& args) {
  Result<std::shared_ptr<IflsService>> service = BuildServeService(args);
  if (!service.ok()) return Fail(service.status());

  ServerOptions sopts;
  sopts.port = static_cast<std::uint16_t>(args.GetInt("port", 0));
  sopts.dispatch_queue_capacity =
      static_cast<std::size_t>(args.GetInt("queue", 1024));
  Result<std::unique_ptr<IflsServer>> server =
      IflsServer::Create(*service, sopts);
  if (!server.ok()) return Fail(server.status());
  std::printf("serving %s on 127.0.0.1:%u (%d dispatchers, queue %zu)\n",
              args.GetOr("preset", "MC").c_str(), (*server)->port(),
              sopts.num_dispatchers, sopts.dispatch_queue_capacity);
  std::fflush(stdout);

  if (args.Has("smoke")) {
    // Self-test: N wire queries differentially checked against the same
    // in-process service, then a metrics pull over the wire.
    const int n = static_cast<int>(args.GetInt("smoke", 6));
    Result<std::unique_ptr<IflsClient>> client =
        IflsClient::Connect((*server)->port());
    if (!client.ok()) return Fail(client.status());
    const IflsObjective kObjectives[] = {IflsObjective::kMinMax,
                                         IflsObjective::kMinDist,
                                         IflsObjective::kMaxSum};
    const std::shared_ptr<const ServingState> state =
        (*service)->AcquireState();
    for (int i = 0; i < n; ++i) {
      Rng qrng(static_cast<std::uint64_t>(7000 + i));
      WireQueryRequest request;
      request.clients =
          GenerateClients(state->snapshot->venue(), 64, {}, &qrng);
      ServiceRequest truth;
      truth.objective = kObjectives[i % 3];
      truth.clients = request.clients;
      const ServiceReply expected = (*service)->Query(std::move(truth));
      if (!expected.status.ok()) return Fail(expected.status);
      Result<WireQueryResponse> response =
          (*client)->Query(kObjectives[i % 3], request);
      if (!response.ok()) return Fail(response.status());
      if (response->found != expected.result.found ||
          response->answer != expected.result.answer ||
          std::memcmp(&response->objective, &expected.result.objective,
                      sizeof(double)) != 0) {
        return Fail("smoke: wire answer differs from in-process service");
      }
    }
    Result<std::string> metrics = (*client)->PullMetrics();
    if (!metrics.ok()) return Fail(metrics.status());
    if (metrics->find("ifls_net_frames_total") == std::string::npos) {
      return Fail("smoke: wire metrics pull missing ifls_net_ series");
    }
    std::printf("smoke ok: %d queries bit-identical over the wire\n", n);
    if (args.Has("metrics")) std::printf("%s", DumpMetricsText().c_str());
    (*server)->Stop();
    (*service)->Stop();
    return 0;
  }

  // Foreground serving: block until SIGINT/SIGTERM, then drain and exit.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  int sig = 0;
  sigwait(&set, &sig);
  std::printf("signal %d: shutting down\n", sig);
  (*server)->Stop();
  if (args.Has("metrics")) std::printf("%s", DumpMetricsText().c_str());
  (*service)->Stop();
  return 0;
}

// `ifls_cli kernels` prints the ISA tier ladder (compiled / CPU-supported /
// active per tier) and the tier auto dispatch picks.
int Kernels() {
  const kernels::KernelTier active = kernels::ActiveKernelTier();
  std::printf("%-8s %-9s %-10s %s\n", "tier", "compiled", "supported",
              "active");
  for (int t = 0; t < kernels::kNumKernelTiers; ++t) {
    const auto tier = static_cast<kernels::KernelTier>(t);
    std::printf("%-8s %-9s %-10s %s\n", kernels::KernelTierName(tier),
                kernels::KernelTierCompiled(tier) ? "yes" : "no",
                kernels::KernelTierSupported(tier) ? "yes" : "no",
                tier == active ? "*" : "");
  }
  std::printf("best tier: %s\n",
              kernels::KernelTierName(kernels::BestKernelTier()));
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s gen-venue|gen-workload|solve|info|render|trace|"
                 "subscribe|fleet|serve|kernels [--flags]\n",
                 argv[0]);
    return 1;
  }
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  if (!args.ok()) return 1;
  if (command == "kernels") return Kernels();
  if (command == "gen-venue") return GenVenue(args);
  if (command == "gen-workload") return GenWorkload(args);
  if (command == "solve") return Solve(args);
  if (command == "info") return Info(args);
  if (command == "render") return Render(args);
  if (command == "trace") return Trace(args);
  if (command == "subscribe") return Subscribe(args);
  if (command == "fleet") return Fleet(args);
  if (command == "serve") return Serve(args);
  return Fail("unknown command");
}

}  // namespace
}  // namespace ifls

int main(int argc, char** argv) { return ifls::Run(argc, argv); }
