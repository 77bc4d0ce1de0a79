#include "e2ebench/src/workloads.h"

#include <cmath>
#include <filesystem>
#include <string>

#include "e2ebench/src/stats.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/trace.h"
#include "src/core/batch_engine.h"
#include "src/datasets/facility_selector.h"
#include "src/datasets/presets.h"
#include "src/datasets/venue_generator.h"
#include "src/service/fleet_store.h"
#include "src/service/venue_router.h"

namespace e2ebench {

using ifls::PartitionId;
using ifls::Result;
using ifls::Status;
using ifls::Stopwatch;

namespace {

// ---- Shared helpers -----------------------------------------------------

/// Seed of everything that defines a workload's serving configuration --
/// facility sets, fleet venues, venue popularity. It is fixed so that runs
/// with different --seed values differ only in their query traffic (client
/// sets, arrival schedule, venue draws) and their medians stay comparable.
constexpr std::uint64_t kLayoutSeed = 2023;

// Set-up is timed several times at three points of a run (start, after
// ground truth, after the measured pass) and reported as the median, so
// neither thread-start jitter nor one burst of host noise can set it.

/// Selects `existing + spares` facilities and `candidates`; the last
/// `spares` drawn facilities are held out of the base as mutation targets.
Result<FacilityCycle> SelectCycle(const ifls::Venue& venue,
                                  std::size_t existing, std::size_t spares,
                                  std::size_t candidates, ifls::Rng* rng) {
  IFLS_ASSIGN_OR_RETURN(
      ifls::FacilitySets sets,
      ifls::SelectUniformFacilities(venue, existing + spares, candidates, rng));
  const std::vector<PartitionId> held(sets.existing.end() - spares,
                                      sets.existing.end());
  sets.existing.resize(existing);
  return MakeCycle(std::move(sets.existing), std::move(sets.candidates), held);
}

FacilityCycle WithoutMutations(const FacilityCycle& cycle) {
  return MakeCycle(cycle.existing, cycle.candidates, {});
}

/// Traced pass vs untraced pass, percent of the untraced p50.
void SetTraceOverhead(RunResult* result, double untraced_p50,
                      double traced_p50) {
  result->metrics.Set("trace.overhead_pct",
                      untraced_p50 > 0.0
                          ? (traced_p50 - untraced_p50) / untraced_p50 * 100.0
                          : 0.0,
                      "%");
}

void SetLatencyMetrics(RunResult* result, const std::vector<double>& ms) {
  result->metrics.Set("p50_ms", Median(ms), "ms");
  SetTail(result, "p99_ms", ms, "ms");
}

/// Short open-loop stream for the serving probe of workloads whose main
/// pass has no server: `count` ops over `span` seconds, a quarter of them
/// mutations.
std::vector<StreamOp> ProbeStream(std::uint64_t seed, std::size_t count,
                                  double span, std::size_t num_bodies) {
  return MakeStream(seed ^ 0x5eed, count, span, 0.25, num_bodies);
}

/// Service options of the serving probes: a compaction threshold of two
/// makes every lap of a two-spare mutation cycle compact once.
ifls::ServiceOptions ProbeServiceOptions() {
  ifls::ServiceOptions options;
  options.compaction_threshold = 2;
  return options;
}

}  // namespace

// ---- batch_solve --------------------------------------------------------

namespace {

constexpr std::size_t kBatchExisting = 150;
constexpr std::size_t kBatchCandidates = 300;
constexpr std::size_t kBatchSpares = 2;  // serving probe only
constexpr std::size_t kBatchClients = 250;
/// Queries per second of --seconds: sizes the fixed query list.
constexpr double kBatchNominalQps = 12.0;
constexpr int kBatchSetupReps = 3;  // per point, three points
constexpr std::size_t kBatchProbeBodies = 6;

struct BatchPass {
  std::vector<double> latency_ms;
  std::uint64_t mismatches = 0;
  double wall_seconds = 0.0;
};

BatchPass RunBatchPass(const ifls::VipTree& tree, const FacilityCycle& base,
                       const std::vector<QueryBody>& bodies,
                       const std::vector<Expected>& truth, int threads) {
  std::vector<ifls::BatchQuery> queries(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    queries[i].objective = bodies[i].objective;
    queries[i].context.oracle = &tree;
    queries[i].context.existing = base.existing;
    queries[i].context.candidates = base.candidates;
    queries[i].context.clients = bodies[i].clients;
  }
  ifls::BatchEngineOptions options;
  options.num_threads = threads;
  ifls::BatchQueryEngine engine(options);
  BatchPass pass;
  Stopwatch watch;
  const std::vector<ifls::BatchQueryOutcome> outcomes = engine.Run(queries);
  pass.wall_seconds = watch.ElapsedSeconds();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ifls::IflsResult& r = outcomes[i].result;
    if (!outcomes[i].status.ok() ||
        !SameAnswer(truth[i], r.found, r.answer, r.objective)) {
      ++pass.mismatches;
      continue;
    }
    pass.latency_ms.push_back(r.stats.elapsed_seconds * 1e3);
  }
  return pass;
}

}  // namespace

Result<RunResult> RunBatchSolve(const RunConfig& config) {
  IFLS_ASSIGN_OR_RETURN(
      ifls::Venue built,
      ifls::BuildPresetVenue(ifls::VenuePreset::kMenziesBuilding));
  auto venue = std::make_shared<const ifls::Venue>(std::move(built));
  ifls::Rng layout_rng(kLayoutSeed);
  IFLS_ASSIGN_OR_RETURN(FacilityCycle cycle,
                        SelectCycle(*venue, kBatchExisting, kBatchSpares,
                                    kBatchCandidates, &layout_rng));
  ifls::Rng rng(config.seed);
  const FacilityCycle base = WithoutMutations(cycle);
  // A traced run solves its list twice plus the layer probes; a third of
  // the list (its first third, same bodies) keeps it well inside the time
  // limit of one run.
  const std::size_t count = std::max<std::size_t>(
      3, static_cast<std::size_t>(
             std::llround(kBatchNominalQps * config.seconds /
                          (config.trace ? 3.0 : 1.0))));
  const std::vector<QueryBody> bodies =
      MakeBodies(*venue, count, kBatchClients, kBatchClients, 0.0, &rng);
  const ifls::VipTreeOptions tree_options = ifls::DefaultServiceTreeOptions();

  // Set-up: index build plus engine (thread pool) start.
  std::vector<double> setup_s;
  auto time_setup = [&]() -> Status {
    for (int rep = 0; rep < kBatchSetupReps; ++rep) {
      Stopwatch watch;
      IFLS_ASSIGN_OR_RETURN(ifls::VipTree tree,
                            ifls::VipTree::Build(venue.get(), tree_options));
      ifls::BatchEngineOptions options;
      options.num_threads = config.nproc;
      ifls::BatchQueryEngine engine(options);
      setup_s.push_back(watch.ElapsedSeconds());
    }
    return Status::OK();
  };
  IFLS_RETURN_NOT_OK(time_setup());

  std::vector<std::vector<Expected>> truth;
  {
    IFLS_ASSIGN_OR_RETURN(ifls::VipTree reference,
                          ifls::VipTree::Build(venue.get(), tree_options));
    truth = ComputeTruth(reference, base, bodies, config.nproc);
  }
  IFLS_RETURN_NOT_OK(time_setup());

  // Every pass runs on a freshly built tree, so each starts with a cold
  // door cache.
  auto run_pass = [&]() -> Result<BatchPass> {
    IFLS_ASSIGN_OR_RETURN(ifls::VipTree tree,
                          ifls::VipTree::Build(venue.get(), tree_options));
    return RunBatchPass(tree, base, bodies, truth[0], config.nproc);
  };
  RunResult result;
  IFLS_RETURN_NOT_OK(ResetPeakRss());
  IFLS_ASSIGN_OR_RETURN(BatchPass pass, run_pass());
  IFLS_ASSIGN_OR_RETURN(const double rss_peak_mb, PeakRssMb());
  IFLS_RETURN_NOT_OK(time_setup());
  result.attempted = bodies.size();
  result.failed = pass.mismatches;
  result.mismatches = pass.mismatches;
  if (!config.trace) {
    result.metrics.Set("setup_s", Median(setup_s), "s");
    result.metrics.Set("qps",
                       static_cast<double>(bodies.size()) / pass.wall_seconds,
                       "1/s");
    SetLatencyMetrics(&result, pass.latency_ms);
    result.metrics.Set("rss_peak_mb", rss_peak_mb, "MiB");
    return result;
  }

  ifls::TraceRecorder::Global().Enable(1);
  Result<BatchPass> traced = run_pass();
  ifls::TraceRecorder::Global().Disable();
  IFLS_RETURN_NOT_OK(traced.status());
  result.attempted += bodies.size();
  result.failed += traced->mismatches;
  result.mismatches += traced->mismatches;
  SetTraceOverhead(&result, Median(pass.latency_ms),
                   Median(traced->latency_ms));

  // Every traced run reports every per-layer metric, so the layers the
  // batch path does not touch (net, service, fleet) are probed on this
  // workload's venue and a few of its bodies.
  const std::vector<QueryBody> probe_bodies(
      bodies.begin(),
      bodies.begin() + static_cast<std::ptrdiff_t>(
                           std::min(kBatchProbeBodies, bodies.size())));
  ServingSetup setup;
  setup.venue = venue;
  setup.service = ProbeServiceOptions();
  IFLS_ASSIGN_OR_RETURN(ifls::VipTree tree,
                        ifls::VipTree::Build(venue.get(), tree_options));
  setup.tree = std::make_shared<const ifls::VipTree>(std::move(tree));
  const std::vector<std::vector<Expected>> probe_truth =
      ComputeTruth(*setup.tree, cycle, probe_bodies, config.nproc);
  const std::vector<StreamOp> stream =
      ProbeStream(config.seed, 16, 4.0, probe_bodies.size());
  IFLS_ASSIGN_OR_RETURN(WirePass wire,
                        RunWirePass(setup, kConnections, stream, probe_bodies,
                                    cycle, probe_truth));
  result.attempted += wire.stats.attempted;
  result.failed += wire.stats.failed;
  result.mismatches += wire.stats.mismatches;
  IFLS_RETURN_NOT_OK(ProbeServing(setup, wire, stream, probe_bodies, cycle,
                                  probe_truth, &result));
  ProbeCodec(bodies, &result.metrics);
  IFLS_RETURN_NOT_OK(ProbeCoreIndex(*venue, tree_options, base, probe_bodies,
                                    &result.metrics));
  IFLS_RETURN_NOT_OK(ProbeSingleVenueFleet(config.workdir + "/fleet", *venue,
                                           *setup.tree, base, probe_bodies,
                                           probe_truth[0], &result.metrics));
  return result;
}

// ---- fleet_churn --------------------------------------------------------

namespace {

constexpr int kFleetLevels = 3;
constexpr int kFleetRooms = 240;
constexpr std::size_t kFleetExisting = 20;
constexpr std::size_t kFleetCandidates = 40;
constexpr std::size_t kFleetSpares = 2;  // serving probe only
/// Enough bodies that the mean solve cost of the popular venues, and with
/// it qps, varies little from seed to seed.
constexpr std::size_t kFleetBodiesPerVenue = 96;
/// Heavy enough that solving, not the thread start/join and mmap/unmap of
/// a hydration, takes most of a dispatcher's time.
constexpr std::size_t kFleetClients = 192;
/// Operations per second of --seconds: sizes the fixed operation count.
constexpr double kFleetNominalQps = 160.0;
constexpr std::size_t kFleetWarmupOps = 400;
/// The measured pass is cut into consecutive blocks of at least this many
/// ops (enough for a p99 each); qps, p50 and p99 are medians over blocks,
/// so a burst of host contention that spans a minority of blocks does not
/// set them.
constexpr std::size_t kFleetBlockOps = 1000;

std::string FleetVenueId(std::size_t i) {
  char id[16];
  std::snprintf(id, sizeof(id), "v%03zu", i);
  return id;
}

struct FleetVenue {
  std::unique_ptr<ifls::Venue> venue;
  FacilityCycle cycle;  // base + probe spares
  std::vector<QueryBody> bodies;
  std::vector<Expected> truth;
};

struct FleetPass {
  std::vector<double> latency_ms;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  /// Per block of consecutive ops: answered queries / (last reply - first
  /// send), and the median and tail of their latencies.
  std::vector<double> block_qps;
  std::vector<double> block_p50_ms;
  std::vector<double> block_tail_ms;
  /// Quantile held by block_tail_ms (0.99 unless the blocks are small).
  double tail_q = 0.99;
};

/// Closed loop over the fleet server; every reply checked against its
/// venue's truth.
Result<FleetPass> RunFleetPass(std::uint16_t port,
                               const std::vector<FleetVenue>& fleet,
                               const std::vector<std::size_t>& venues,
                               std::uint64_t body_seed) {
  ifls::Rng rng(body_seed);
  std::vector<GenOp> ops(venues.size());
  std::vector<std::size_t> body_of(venues.size());
  for (std::size_t i = 0; i < venues.size(); ++i) {
    body_of[i] = rng.NextBounded(kFleetBodiesPerVenue);
    const QueryBody& body = fleet[venues[i]].bodies[body_of[i]];
    ifls::WireQueryRequest request;
    request.venue_id = FleetVenueId(venues[i]);
    request.clients = body.clients;
    ops[i].frame = ifls::EncodeQueryFrame(i + 1, body.objective, request);
  }
  IFLS_ASSIGN_OR_RETURN(GenReport report,
                        RunWireLoad(port, kFleetConnections, LoopMode::kClosed,
                                    ops, 30.0));
  FleetPass pass;
  const std::size_t blocks =
      std::max<std::size_t>(1, ops.size() / kFleetBlockOps);
  pass.tail_q = SupportedTailQuantile(ops.size() / blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<double> block_ms;
    double first_sent = report.wall_seconds;
    double last_done = 0.0;
    for (std::size_t i = ops.size() * b / blocks;
         i < ops.size() * (b + 1) / blocks; ++i) {
      const GenOutcome& out = report.ops[i];
      if (!out.done || out.opcode != ifls::WireOpcode::kQueryResult) {
        ++pass.failed;
        continue;
      }
      IFLS_ASSIGN_OR_RETURN(ifls::WireQueryResponse reply,
                            ifls::DecodeQueryResponse(out.payload));
      if (!SameAnswer(fleet[venues[i]].truth[body_of[i]], reply.found,
                      reply.answer, reply.objective)) {
        ++pass.failed;
        ++pass.mismatches;
        continue;
      }
      first_sent = std::min(first_sent, out.sent_seconds);
      last_done = std::max(last_done, out.done_seconds);
      block_ms.push_back(out.latency_seconds() * 1e3);
    }
    pass.latency_ms.insert(pass.latency_ms.end(), block_ms.begin(),
                           block_ms.end());
    if (last_done <= first_sent) continue;
    pass.block_qps.push_back(static_cast<double>(block_ms.size()) /
                             (last_done - first_sent));
    pass.block_p50_ms.push_back(Median(block_ms));
    pass.block_tail_ms.push_back(Percentile(block_ms, pass.tail_q));
  }
  return pass;
}

}  // namespace

std::vector<std::size_t> FleetVenueSequence(std::uint64_t seed,
                                            std::size_t count) {
  ifls::Rng layout_rng(kLayoutSeed);
  std::vector<std::size_t> popularity(kFleetVenues);
  for (std::size_t i = 0; i < kFleetVenues; ++i) popularity[i] = i;
  layout_rng.Shuffle(&popularity);
  ifls::Rng rng(seed);
  const ZipfSampler zipf(kFleetVenues, kFleetZipfExponent);
  std::vector<std::size_t> sequence(count);
  for (std::size_t& v : sequence) v = popularity[zipf.Sample(&rng)];
  return sequence;
}

Result<RunResult> RunFleetChurn(const RunConfig& config) {
  namespace fs = std::filesystem;
  const std::string root = config.workdir + "/fleet";
  const std::string spare_root = config.workdir + "/fleet-setup";
  std::error_code ec;
  fs::remove_all(root, ec);

  ifls::Rng layout_rng(kLayoutSeed);
  ifls::Rng rng(config.seed);
  std::vector<FleetVenue> fleet(kFleetVenues);
  for (std::size_t i = 0; i < kFleetVenues; ++i) {
    ifls::VenueGeneratorSpec spec;
    spec.name = FleetVenueId(i);
    spec.levels = kFleetLevels;
    spec.total_rooms = kFleetRooms + 20 * static_cast<int>(i % 4);
    spec.door_jitter_seed = kLayoutSeed + i;
    IFLS_ASSIGN_OR_RETURN(ifls::Venue venue, ifls::GenerateVenue(spec));
    fleet[i].venue = std::make_unique<ifls::Venue>(std::move(venue));
    IFLS_ASSIGN_OR_RETURN(
        fleet[i].cycle,
        SelectCycle(*fleet[i].venue, kFleetExisting, kFleetSpares,
                    kFleetCandidates, &layout_rng));
    fleet[i].bodies = MakeBodies(*fleet[i].venue, kFleetBodiesPerVenue,
                                 kFleetClients, kFleetClients, 0.0, &rng);
  }

  // Set-up: build and write every venue's snapshot, open the router, start
  // the fleet server. The first repetition is the one that serves; the
  // later ones (after ground truth, after the pass) write a spare
  // directory and are torn down.
  ifls::VenueRouterOptions router_options;
  router_options.max_resident_venues = kFleetResident;
  const ifls::VipTreeOptions tree_options = router_options.service.tree;
  // One dispatcher per connection: a hit never queues behind another
  // connection's hydration, so p50 times hits and p99 hydrations.
  ifls::ServerOptions server_options;
  server_options.num_dispatchers = kFleetConnections;
  std::vector<double> setup_s;
  std::vector<double> write_ms;
  std::shared_ptr<ifls::VenueRouter> router;
  std::unique_ptr<ifls::IflsServer> server;
  // The serving repetition's in-memory trees, kept for ground truth only.
  std::vector<std::unique_ptr<ifls::VipTree>> trees;
  auto time_setup = [&](const std::string& dir) -> Status {
    Stopwatch watch;
    for (std::size_t i = 0; i < kFleetVenues; ++i) {
      IFLS_ASSIGN_OR_RETURN(ifls::VipTree tree,
                            ifls::VipTree::Build(fleet[i].venue.get(),
                                                 tree_options));
      Stopwatch write_watch;
      IFLS_RETURN_NOT_OK(ifls::WriteVenueSnapshot(
          dir + "/" + FleetVenueId(i), *fleet[i].venue, tree,
          fleet[i].cycle.existing, fleet[i].cycle.candidates));
      write_ms.push_back(write_watch.ElapsedSeconds() * 1e3);
      if (dir == root) {
        trees.push_back(std::make_unique<ifls::VipTree>(std::move(tree)));
      }
    }
    IFLS_ASSIGN_OR_RETURN(std::unique_ptr<ifls::VenueRouter> opened,
                          ifls::VenueRouter::Open(dir, router_options));
    std::shared_ptr<ifls::VenueRouter> shared = std::move(opened);
    IFLS_ASSIGN_OR_RETURN(
        std::unique_ptr<ifls::IflsServer> started,
        ifls::IflsServer::CreateFleet(shared, server_options));
    setup_s.push_back(watch.ElapsedSeconds());
    if (dir == root) {
      router = std::move(shared);
      server = std::move(started);
      return Status::OK();
    }
    started->Stop();
    std::error_code remove_ec;
    fs::remove_all(dir, remove_ec);
    return Status::OK();
  };
  IFLS_RETURN_NOT_OK(time_setup(root));

  // Ground truth on the in-memory trees (the router serves mapped copies).
  for (std::size_t i = 0; i < kFleetVenues; ++i) {
    fleet[i].truth = ComputeTruth(*trees[i], WithoutMutations(fleet[i].cycle),
                                  fleet[i].bodies, config.nproc)[0];
  }
  trees.clear();
  IFLS_RETURN_NOT_OK(time_setup(spare_root));

  // A traced run drives its pass twice plus the probes; half the pass
  // keeps it well inside the time limit of one run.
  const std::size_t count = static_cast<std::size_t>(std::llround(
      kFleetNominalQps * config.seconds / (config.trace ? 2.0 : 1.0)));
  const std::vector<std::size_t> sequence =
      FleetVenueSequence(config.seed, kFleetWarmupOps + count);
  const std::vector<std::size_t> warmup(
      sequence.begin(),
      sequence.begin() + static_cast<std::ptrdiff_t>(kFleetWarmupOps));
  const std::vector<std::size_t> measured(
      sequence.begin() + static_cast<std::ptrdiff_t>(kFleetWarmupOps),
      sequence.end());

  RunResult result;
  IFLS_RETURN_NOT_OK(ResetPeakRss());
  IFLS_ASSIGN_OR_RETURN(FleetPass warm, RunFleetPass(server->port(), fleet,
                                                     warmup, config.seed + 1));
  const ifls::VenueRouterMetrics before = router->Metrics();
  IFLS_ASSIGN_OR_RETURN(FleetPass pass, RunFleetPass(server->port(), fleet,
                                                     measured, config.seed + 2));
  const ifls::VenueRouterMetrics after = router->Metrics();
  IFLS_ASSIGN_OR_RETURN(const double rss_peak_mb, PeakRssMb());
  IFLS_RETURN_NOT_OK(time_setup(spare_root));
  result.attempted = warmup.size() + measured.size();
  result.failed = warm.failed + pass.failed;
  result.mismatches = warm.mismatches + pass.mismatches;
  const double loads = static_cast<double>(after.loads - before.loads);
  const double hits = static_cast<double>(after.hits - before.hits);
  result.notes.push_back({"fleet_miss_share_simulated",
                          std::to_string(LruMissShare(sequence, kFleetResident))});
  result.notes.push_back(
      {"fleet_miss_share_measured", std::to_string(loads / (loads + hits))});
  if (!config.trace) {
    server->Stop();
    result.metrics.Set("setup_s", Median(setup_s), "s");
    result.metrics.Set("qps", Median(pass.block_qps), "1/s");
    result.metrics.Set("p50_ms", Median(pass.block_p50_ms), "ms");
    result.metrics.Set("p99_ms", Median(pass.block_tail_ms), "ms");
    const std::string blocks =
        " over " + std::to_string(pass.block_qps.size()) + " blocks of >= " +
        std::to_string(measured.size() /
                       std::max<std::size_t>(1, pass.block_qps.size())) +
        " ops";
    result.notes.push_back({"qps", "median" + blocks});
    result.notes.push_back({"p50_ms", "median of block medians" + blocks});
    result.notes.push_back(
        {"p99_ms",
         "median of block " + QuantileLabel(pass.tail_q) + "s" + blocks});
    result.metrics.Set("rss_peak_mb", rss_peak_mb, "MiB");
    fs::remove_all(root, ec);
    return result;
  }

  ifls::TraceRecorder::Global().Enable(1);
  Result<FleetPass> traced =
      RunFleetPass(server->port(), fleet, measured, config.seed + 3);
  ifls::TraceRecorder::Global().Disable();
  IFLS_RETURN_NOT_OK(traced.status());
  result.attempted += measured.size();
  result.failed += traced->failed;
  result.mismatches += traced->mismatches;
  SetTraceOverhead(&result, Median(pass.latency_ms),
                   Median(traced->latency_ms));
  const ifls::ServerMetrics net = server->Metrics();
  server->Stop();

  // Serving probe on venue 0 for the service layer; the fleet pass itself
  // supplies batching and rejection counts below.
  {
    FleetVenue& v0 = fleet[0];
    ServingSetup setup;
    auto venue = std::make_shared<const ifls::Venue>(*v0.venue);
    setup.venue = venue;
    setup.service = ProbeServiceOptions();
    IFLS_ASSIGN_OR_RETURN(ifls::VipTree tree,
                          ifls::VipTree::Build(venue.get(), tree_options));
    setup.tree = std::make_shared<const ifls::VipTree>(std::move(tree));
    const std::vector<std::vector<Expected>> probe_truth =
        ComputeTruth(*setup.tree, v0.cycle, v0.bodies, config.nproc);
    const std::vector<StreamOp> stream =
        ProbeStream(config.seed, 200, 2.0, v0.bodies.size());
    IFLS_ASSIGN_OR_RETURN(WirePass wire,
                          RunWirePass(setup, kConnections, stream, v0.bodies,
                                      v0.cycle, probe_truth));
    result.attempted += wire.stats.attempted;
    result.failed += wire.stats.failed;
    result.mismatches += wire.stats.mismatches;
    IFLS_RETURN_NOT_OK(ProbeServing(setup, wire, stream, v0.bodies, v0.cycle,
                                    probe_truth, &result));
    ProbeCodec(v0.bodies, &result.metrics);
    IFLS_RETURN_NOT_OK(ProbeCoreIndex(*v0.venue, tree_options,
                                      WithoutMutations(v0.cycle), v0.bodies,
                                      &result.metrics));
  }
  result.metrics.Set("net.batched_share",
                     net.queries > 0 ? static_cast<double>(net.batched_queries) /
                                           static_cast<double>(net.queries)
                                     : 0.0,
                     "ratio");
  result.metrics.Set("net.rejected", static_cast<double>(net.rejected),
                     "count");
  // Client round trip minus in-process residency of the same venue
  // sequence, replayed sequentially through the router.
  std::vector<double> residency_ms;
  {
    ifls::Rng body_rng(config.seed + 2);
    for (std::size_t i = 0; i < std::min<std::size_t>(measured.size(), 400);
         ++i) {
      const FleetVenue& v = fleet[measured[i]];
      const std::size_t b = body_rng.NextBounded(kFleetBodiesPerVenue);
      ifls::ServiceRequest request;
      request.objective = v.bodies[b].objective;
      request.clients = v.bodies[b].clients;
      const ifls::ServiceReply reply =
          router->Query(FleetVenueId(measured[i]), std::move(request));
      IFLS_RETURN_NOT_OK(reply.status);
      ++result.attempted;
      if (!SameAnswer(v.truth[b], reply.result.found, reply.result.answer,
                      reply.result.objective)) {
        ++result.failed;
        ++result.mismatches;
      }
      residency_ms.push_back((reply.queue_seconds + reply.solve_seconds) * 1e3);
    }
  }
  result.metrics.Set("net.overhead_p50_ms",
                     Median(pass.latency_ms) - Median(residency_ms), "ms");

  result.metrics.Set("fleet.hit_rate", hits / (hits + loads), "ratio");
  result.metrics.Set("fleet.evictions",
                     static_cast<double>(after.evictions - before.evictions),
                     "count");
  const ifls::VenueRouterMetrics now = router->Metrics();
  result.metrics.Set("fleet.resident_mb",
                     static_cast<double>(now.resident_bytes) / (1 << 20), "MiB");
  result.metrics.Set("fleet.mapped_mb",
                     static_cast<double>(now.mapped_bytes) / (1 << 20), "MiB");
  std::vector<double> hydrate_ms;
  std::vector<double> load_ms;
  for (std::size_t i = 0; i < kFleetVenues; ++i) {
    const std::string id = FleetVenueId(i);
    IFLS_RETURN_NOT_OK(router->Evict(id));
    Stopwatch hydrate_watch;
    IFLS_RETURN_NOT_OK(router->Preload(id));
    hydrate_ms.push_back(hydrate_watch.ElapsedSeconds() * 1e3);
    Stopwatch load_watch;
    IFLS_ASSIGN_OR_RETURN(
        ifls::LoadedVenueSnapshot loaded,
        ifls::LoadVenueSnapshot(root + "/" + id, ifls::SnapshotLoadMode::kMmap));
    load_ms.push_back(load_watch.ElapsedSeconds() * 1e3);
  }
  result.metrics.Set("fleet.hydrate_ms", Median(hydrate_ms), "ms");
  result.metrics.Set("fleet.load_snapshot_ms", Median(load_ms), "ms");
  result.metrics.Set("fleet.write_ms", Median(write_ms), "ms");
  result.metrics.Set(
      "fleet.dir_bytes_per_venue",
      static_cast<double>(DirectoryBytes(root)) / kFleetVenues, "bytes");
  router.reset();
  fs::remove_all(root, ec);
  return result;
}

}  // namespace e2ebench
