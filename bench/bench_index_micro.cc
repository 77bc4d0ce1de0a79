// Experiment A2 — index micro-benchmarks (google-benchmark): the distance
// oracles behind every IFLS query. Compares VIP-tree lookups, IP-tree chain
// composition and raw door-graph Dijkstra (via the memoised oracle, cold
// and warm), plus NN search and index construction per venue.
//
// Beyond the google-benchmark suite, the binary has a custom main() that
// measures the flat arena layout directly — bytes/node, arena utilization,
// build time/peak memory, matrix-cell lookup latency and PointToPartition
// latency — and writes BENCH_index_layout.json so later changes have a perf
// trajectory to compare against. Run with --benchmark_filter=NONE to emit
// only the report.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/benchlib/json_report.h"
#include "src/common/memory_tracker.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/graph/accessibility_model.h"
#include "src/datasets/client_generator.h"
#include "src/datasets/facility_selector.h"
#include "src/datasets/presets.h"
#include "src/datasets/workload.h"
#include "src/graph/dijkstra.h"
#include "src/graph/door_graph.h"
#include "src/index/door_matrix.h"
#include "src/index/graph_oracle.h"
#include "src/index/nn_search.h"
#include "src/index/vip_tree.h"

namespace ifls {
namespace {

/// Shared per-venue state, built once.
struct MicroEnv {
  Venue venue;
  std::unique_ptr<VipTree> vip;
  std::unique_ptr<VipTree> ip;
  std::unique_ptr<GraphDistanceOracle> oracle;
  std::vector<Client> clients;
  std::vector<PartitionId> targets;

  explicit MicroEnv(VenuePreset preset) {
    Result<Venue> v = BuildPresetVenue(preset);
    IFLS_CHECK(v.ok()) << v.status().ToString();
    venue = std::move(v).value();
    Result<VipTree> vip_built = VipTree::Build(&venue);
    IFLS_CHECK(vip_built.ok()) << vip_built.status().ToString();
    vip = std::make_unique<VipTree>(std::move(vip_built).value());
    VipTreeOptions ip_options;
    ip_options.build_leaf_to_ancestor = false;
    Result<VipTree> ip_built = VipTree::Build(&venue, ip_options);
    IFLS_CHECK(ip_built.ok()) << ip_built.status().ToString();
    ip = std::make_unique<VipTree>(std::move(ip_built).value());
    oracle = std::make_unique<GraphDistanceOracle>(&venue);
    Rng rng(42);
    ClientGeneratorOptions copts;
    clients = GenerateClients(venue, 512, copts, &rng);
    for (int i = 0; i < 512; ++i) {
      targets.push_back(static_cast<PartitionId>(
          rng.NextBounded(venue.num_partitions())));
    }
  }
};

MicroEnv& Env(int preset_index) {
  static MicroEnv* envs[4] = {nullptr, nullptr, nullptr, nullptr};
  if (envs[preset_index] == nullptr) {
    envs[preset_index] = new MicroEnv(AllVenuePresets()[preset_index]);
  }
  return *envs[preset_index];
}

// ------------------------------------------------------- matrix lookups

/// A random cell-access sequence over the tree's arena views: every main
/// and ancestor matrix, plus a probe list (matrix, row, col) into them.
struct LookupWorkload {
  std::vector<DoorMatrixView> flat;
  struct Probe {
    std::uint32_t matrix;
    std::int32_t row;
    std::int32_t col;
  };
  std::vector<Probe> probes;
};

LookupWorkload BuildLookupWorkload(const VipTree& tree,
                                   std::size_t num_probes) {
  LookupWorkload w;
  for (NodeId id = 0; id < static_cast<NodeId>(tree.num_nodes()); ++id) {
    const VipNode& node = tree.node(id);
    if (!node.matrix.empty()) w.flat.push_back(node.matrix);
    for (const DoorMatrixView& anc : node.ancestor_matrices) {
      if (!anc.empty()) w.flat.push_back(anc);
    }
  }
  IFLS_CHECK(!w.flat.empty());
  Rng rng(2024);
  w.probes.reserve(num_probes);
  for (std::size_t i = 0; i < num_probes; ++i) {
    const auto m =
        static_cast<std::uint32_t>(rng.NextBounded(w.flat.size()));
    const DoorMatrixView& view = w.flat[m];
    w.probes.push_back({m,
                        static_cast<std::int32_t>(
                            rng.NextBounded(view.num_rows())),
                        static_cast<std::int32_t>(
                            rng.NextBounded(view.num_cols()))});
  }
  return w;
}

LookupWorkload& Workload(int preset_index) {
  static LookupWorkload* workloads[4] = {nullptr, nullptr, nullptr, nullptr};
  if (workloads[preset_index] == nullptr) {
    workloads[preset_index] = new LookupWorkload(
        BuildLookupWorkload(*Env(preset_index).vip, std::size_t{1} << 16));
  }
  return *workloads[preset_index];
}

// ------------------------------------------------------------ benchmarks

void BM_VipTreePointToPartition(benchmark::State& state) {
  MicroEnv& env = Env(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const Client& c = env.clients[i % env.clients.size()];
    const PartitionId t = env.targets[i % env.targets.size()];
    benchmark::DoNotOptimize(
        env.vip->PointToPartition(c.position, c.partition, t));
    ++i;
  }
}
BENCHMARK(BM_VipTreePointToPartition)->DenseRange(0, 3)->Name(
    "PointToPartition/VIP-tree");

void BM_IpTreePointToPartition(benchmark::State& state) {
  MicroEnv& env = Env(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const Client& c = env.clients[i % env.clients.size()];
    const PartitionId t = env.targets[i % env.targets.size()];
    benchmark::DoNotOptimize(
        env.ip->PointToPartition(c.position, c.partition, t));
    ++i;
  }
}
BENCHMARK(BM_IpTreePointToPartition)->DenseRange(0, 3)->Name(
    "PointToPartition/IP-tree");

/// Point-to-point distance between two of the venue's sampled clients.
void PointToPointLoop(benchmark::State& state, const VipTree& tree,
                      const std::vector<Client>& clients) {
  std::size_t i = 0;
  for (auto _ : state) {
    const Client& a = clients[i % clients.size()];
    const Client& b = clients[(i * 7 + 3) % clients.size()];
    benchmark::DoNotOptimize(
        tree.PointToPoint(a.position, a.partition, b.position, b.partition));
    ++i;
  }
}

void BM_VipTreePointToPoint(benchmark::State& state) {
  MicroEnv& env = Env(static_cast<int>(state.range(0)));
  PointToPointLoop(state, *env.vip, env.clients);
}
BENCHMARK(BM_VipTreePointToPoint)->DenseRange(0, 3)->Name(
    "PointToPoint/VIP-tree");

void BM_IpTreePointToPoint(benchmark::State& state) {
  MicroEnv& env = Env(static_cast<int>(state.range(0)));
  PointToPointLoop(state, *env.ip, env.clients);
}
BENCHMARK(BM_IpTreePointToPoint)->DenseRange(0, 3)->Name(
    "PointToPoint/IP-tree");

void BM_WarmGraphOracle(benchmark::State& state) {
  MicroEnv& env = Env(static_cast<int>(state.range(0)));
  // Warm: one pass over the (client, target) cycle runs every source door's
  // Dijkstra, so no cold run lands inside the timing.
  for (std::size_t k = 0; k < env.clients.size(); ++k) {
    const Client& c = env.clients[k];
    benchmark::DoNotOptimize(env.oracle->PointToPartition(
        c.position, c.partition, env.targets[k % env.targets.size()]));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Client& c = env.clients[i % env.clients.size()];
    const PartitionId t = env.targets[i % env.targets.size()];
    benchmark::DoNotOptimize(
        env.oracle->PointToPartition(c.position, c.partition, t));
    ++i;
  }
}
BENCHMARK(BM_WarmGraphOracle)->DenseRange(0, 3)->Name(
    "PointToPartition/graph-oracle-warm");

void BM_AccessibilityModel(benchmark::State& state) {
  // The Lu et al. graph model the paper's §4 argues against: a fresh graph
  // expansion per distance query.
  MicroEnv& env = Env(static_cast<int>(state.range(0)));
  AccessibilityModel model(&env.venue);
  std::size_t i = 0;
  for (auto _ : state) {
    const Client& c = env.clients[i % env.clients.size()];
    const PartitionId t = env.targets[i % env.targets.size()];
    benchmark::DoNotOptimize(
        model.PointToPartition(c.position, c.partition, t));
    ++i;
  }
}
BENCHMARK(BM_AccessibilityModel)->DenseRange(0, 3)->Name(
    "PointToPartition/accessibility-graph");

void BM_ColdDijkstra(benchmark::State& state) {
  MicroEnv& env = Env(static_cast<int>(state.range(0)));
  DoorGraph graph(env.venue);
  std::size_t i = 0;
  for (auto _ : state) {
    const DoorId source = static_cast<DoorId>(i % env.venue.num_doors());
    benchmark::DoNotOptimize(SingleSourceShortestPaths(graph, source));
    ++i;
  }
}
BENCHMARK(BM_ColdDijkstra)->DenseRange(0, 3)->Name(
    "SingleSourceDijkstra/cold");

void BM_NearestFacility(benchmark::State& state) {
  MicroEnv& env = Env(static_cast<int>(state.range(0)));
  Rng rng(7);
  const ParameterGrid grid =
      PresetParameterGrid(AllVenuePresets()[static_cast<int>(
          state.range(0))]);
  Result<FacilitySets> sets = SelectUniformFacilities(
      env.venue, grid.default_existing, 0, &rng);
  IFLS_CHECK(sets.ok());
  FacilityIndex index(env.vip.get(), sets->existing);
  std::size_t i = 0;
  for (auto _ : state) {
    const Client& c = env.clients[i % env.clients.size()];
    benchmark::DoNotOptimize(NearestFacility(
        index, c.position, c.partition, FacilityFilter::kAny, nullptr));
    ++i;
  }
}
BENCHMARK(BM_NearestFacility)->DenseRange(0, 3)->Name(
    "NearestFacility/VIP-tree");

void BM_VipTreeBuild(benchmark::State& state) {
  MicroEnv& env = Env(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(VipTree::Build(&env.venue));
  }
}
BENCHMARK(BM_VipTreeBuild)
    ->DenseRange(0, 3)
    ->Name("IndexBuild/VIP-tree")
    ->Unit(benchmark::kMillisecond);

void BM_MatrixLookupFlat(benchmark::State& state) {
  LookupWorkload& w = Workload(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const LookupWorkload::Probe& p = w.probes[i % w.probes.size()];
    benchmark::DoNotOptimize(w.flat[p.matrix].At(p.row, p.col));
    ++i;
  }
}
BENCHMARK(BM_MatrixLookupFlat)->DenseRange(0, 3)->Name(
    "MatrixLookup/flat-arena");

// --------------------------------------------------------- layout report

/// Sweeps the probe list `passes` times and returns ns/lookup; `reps`
/// repetitions, best taken (steady-state figure).
double MeasureLookupNs(const LookupWorkload& w, int passes, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    double sum = 0.0;
    Stopwatch watch;
    for (int pass = 0; pass < passes; ++pass) {
      for (const LookupWorkload::Probe& p : w.probes) {
        sum += w.flat[p.matrix].At(p.row, p.col);
      }
    }
    const double seconds = watch.ElapsedSeconds();
    benchmark::DoNotOptimize(sum);
    best = std::min(best,
                    seconds * 1e9 / (static_cast<double>(passes) *
                                     static_cast<double>(w.probes.size())));
  }
  return best;
}

struct PresetLayoutReport {
  std::string preset;
  VipTreeLayoutStats stats;
  std::size_t memory_footprint_bytes = 0;
  double build_seconds = 0.0;
  std::int64_t build_peak_bytes = 0;
  double flat_lookup_ns = 0.0;
  double point_to_partition_us = 0.0;
};

PresetLayoutReport MeasurePreset(int preset_index) {
  MicroEnv& env = Env(preset_index);
  PresetLayoutReport r;
  r.preset = VenuePresetName(AllVenuePresets()[preset_index]);
  r.stats = env.vip->LayoutStats();
  r.memory_footprint_bytes = env.vip->MemoryFootprintBytes();

  // Build cost, with the arena charges isolated to this scope's high water.
  {
    MemoryTracker tracker;
    ScopedMemoryTracking tracking(&tracker);
    MemoryTracker::ScopedPeak peak(&tracker);
    Stopwatch watch;
    Result<VipTree> rebuilt = VipTree::Build(&env.venue);
    r.build_seconds = watch.ElapsedSeconds();
    IFLS_CHECK(rebuilt.ok()) << rebuilt.status().ToString();
    r.build_peak_bytes = peak.scope_peak_bytes();
  }

  r.flat_lookup_ns =
      MeasureLookupNs(Workload(preset_index), /*passes=*/16, /*reps=*/3);

  // End-to-end distance query latency on the flat tree.
  constexpr int kQueries = 4096;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    double sum = 0.0;
    Stopwatch watch;
    for (int i = 0; i < kQueries; ++i) {
      const Client& c = env.clients[static_cast<std::size_t>(i) %
                                    env.clients.size()];
      const PartitionId t = env.targets[static_cast<std::size_t>(i) %
                                        env.targets.size()];
      sum += env.vip->PointToPartition(c.position, c.partition, t);
    }
    const double seconds = watch.ElapsedSeconds();
    benchmark::DoNotOptimize(sum);
    best = std::min(best, seconds * 1e6 / kQueries);
  }
  r.point_to_partition_us = best;
  return r;
}

void WriteLayoutReport(const std::string& path) {
  std::vector<PresetLayoutReport> reports;
  for (int i = 0; i < 4; ++i) {
    std::cerr << "[layout] measuring preset "
              << VenuePresetName(AllVenuePresets()[i]) << "...\n";
    reports.push_back(MeasurePreset(i));
  }

  const Status written = WriteBenchReportToFile(
      path, "index_layout", [&reports](JsonWriter& w) {
        w.Key("presets");
        w.BeginArray();
        for (const PresetLayoutReport& r : reports) {
          w.BeginObject();
          w.Field("preset", r.preset);
          w.Field("num_nodes", r.stats.num_nodes);
          w.Field("num_leaves", r.stats.num_leaves);
          w.Field("bytes_per_node", r.stats.bytes_per_node);
          w.Field("memory_footprint_bytes", r.memory_footprint_bytes);
          w.Field("arena_id_bytes", r.stats.id_bytes);
          w.Field("arena_dist_bytes", r.stats.dist_bytes);
          w.Field("arena_used_bytes", r.stats.arena_used_bytes);
          w.Field("arena_capacity_bytes", r.stats.arena_capacity_bytes);
          w.Field("arena_utilization", r.stats.arena_utilization);
          w.Field("build_seconds", r.build_seconds);
          w.Field("build_peak_bytes", r.build_peak_bytes);
          w.Field("flat_lookup_ns", r.flat_lookup_ns);
          w.Field("point_to_partition_us", r.point_to_partition_us);
          w.EndObject();
        }
        w.EndArray();
      });
  IFLS_CHECK(written.ok()) << written.ToString();
  std::cerr << "[layout] wrote " << path << "\n";
}

}  // namespace
}  // namespace ifls

int main(int argc, char** argv) {
  // Our flags, stripped before google-benchmark sees argv:
  //   --layout_report=PATH   where to write the JSON (default below)
  //   --no_layout_report     run only the google benchmarks
  std::string report_path = "BENCH_index_layout.json";
  bool write_report = true;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--layout_report=", 16) == 0) {
      report_path = argv[i] + 16;
    } else if (std::strcmp(argv[i], "--no_layout_report") == 0) {
      write_report = false;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  if (write_report) ifls::WriteLayoutReport(report_path);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
