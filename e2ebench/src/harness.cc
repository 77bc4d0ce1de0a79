#include "e2ebench/src/harness.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include "e2ebench/src/stats.h"
#include "src/common/stopwatch.h"
#include "src/core/batch_engine.h"
#include "src/datasets/client_generator.h"
#include "src/service/fleet_store.h"
#include "src/service/venue_router.h"

namespace e2ebench {

using ifls::Client;
using ifls::IflsObjective;
using ifls::PartitionId;
using ifls::Result;
using ifls::Status;
using ifls::Stopwatch;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void SleepUntil(Clock::time_point start, double offset_seconds) {
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(offset_seconds)));
}

/// Applied-mutation windows [sent, done] in stream order.
struct Window {
  double start = 0.0;
  double end = 0.0;
};

/// True when the reply equals the truth of some cycle state that was live
/// while the query was in flight over [sent, done]. Epoch e is the state
/// after the first e mutations of the stream; it can be live from when
/// mutation e-1 was sent until mutation e was answered.
bool MatchesLiveState(double sent, double done, const std::vector<Window>& muts,
                      const FacilityCycle& cycle,
                      const std::vector<std::vector<Expected>>& truth,
                      std::size_t body, bool found, PartitionId answer,
                      double objective) {
  const std::size_t m = muts.size();
  std::size_t lo = 0;
  while (lo < m && muts[lo].end < sent) ++lo;
  for (std::size_t e = lo; e <= m; ++e) {
    if (e > 0 && muts[e - 1].start > done) break;
    const std::size_t state = e % cycle.num_states();
    if (SameAnswer(truth[state][body], found, answer, objective)) return true;
  }
  return false;
}

ifls::ServiceRequest RequestFor(const QueryBody& body) {
  ifls::ServiceRequest request;
  request.objective = body.objective;
  request.clients = body.clients;
  return request;
}

}  // namespace

bool SameAnswer(const Expected& want, bool found, PartitionId answer,
                double objective) {
  return want.found == found && want.answer == answer &&
         std::memcmp(&want.objective, &objective, sizeof(double)) == 0;
}

std::vector<PartitionId> FacilityCycle::ExistingAt(std::size_t k) const {
  std::vector<PartitionId> out = existing;
  for (std::size_t i = 0; i < k && i < mutations.size(); ++i) {
    const ifls::Mutation& m = mutations[i];
    if (m.kind == ifls::MutationKind::kAddFacility) {
      out.push_back(m.partition);
    } else {
      out.erase(std::find(out.begin(), out.end(), m.partition));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

FacilityCycle MakeCycle(std::vector<PartitionId> existing,
                        std::vector<PartitionId> candidates,
                        const std::vector<PartitionId>& spares) {
  FacilityCycle cycle;
  cycle.existing = std::move(existing);
  cycle.candidates = std::move(candidates);
  std::sort(cycle.existing.begin(), cycle.existing.end());
  std::sort(cycle.candidates.begin(), cycle.candidates.end());
  for (PartitionId p : spares) {
    cycle.mutations.push_back({ifls::MutationKind::kAddFacility, p});
  }
  for (PartitionId p : spares) {
    cycle.mutations.push_back({ifls::MutationKind::kRemoveFacility, p});
  }
  return cycle;
}

std::vector<QueryBody> MakeBodies(const ifls::Venue& venue, std::size_t count,
                                  std::size_t small_clients,
                                  std::size_t large_clients,
                                  double large_share, ifls::Rng* rng) {
  static constexpr IflsObjective kObjectives[] = {
      IflsObjective::kMinMax, IflsObjective::kMinDist, IflsObjective::kMaxSum};
  std::vector<QueryBody> bodies(count);
  for (std::size_t i = 0; i < count; ++i) {
    bodies[i].objective = kObjectives[i % 3];
    const std::size_t n =
        rng->NextBernoulli(large_share) ? large_clients : small_clients;
    bodies[i].clients = ifls::GenerateClients(venue, n, {}, rng);
  }
  return bodies;
}

std::vector<std::vector<Expected>> ComputeTruth(
    const ifls::VipTree& tree, const FacilityCycle& cycle,
    const std::vector<QueryBody>& bodies, int threads) {
  std::vector<ifls::BatchQuery> queries;
  for (std::size_t k = 0; k < cycle.num_states(); ++k) {
    const std::vector<PartitionId> existing = cycle.ExistingAt(k);
    for (const QueryBody& body : bodies) {
      ifls::BatchQuery q;
      q.objective = body.objective;
      q.context.oracle = &tree;
      q.context.existing = existing;
      q.context.candidates = cycle.candidates;
      q.context.clients = body.clients;
      queries.push_back(std::move(q));
    }
  }
  ifls::BatchEngineOptions options;
  options.num_threads = threads;
  ifls::BatchQueryEngine engine(options);
  const std::vector<ifls::BatchQueryOutcome> outcomes = engine.Run(queries);
  std::vector<std::vector<Expected>> truth(cycle.num_states());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    IFLS_CHECK(outcomes[i].status.ok()) << outcomes[i].status.ToString();
    const ifls::IflsResult& r = outcomes[i].result;
    truth[i / bodies.size()].push_back({r.found, r.answer, r.objective});
  }
  return truth;
}

std::vector<StreamOp> MakeStream(std::uint64_t seed, std::size_t count,
                                 double span_seconds, double mutation_share,
                                 std::size_t num_bodies) {
  const std::vector<double> due = PoissonSchedule(seed, count, span_seconds);
  ifls::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<StreamOp> ops(count);
  for (std::size_t i = 0; i < count; ++i) {
    ops[i].due_seconds = due[i];
    ops[i].mutation = rng.NextBernoulli(mutation_share);
    ops[i].body = rng.NextBounded(num_bodies);
  }
  return ops;
}

Result<StreamStats> DriveWireStream(
    std::uint16_t port, int connections, const std::vector<StreamOp>& stream,
    const std::vector<QueryBody>& bodies, const FacilityCycle& cycle,
    const std::vector<std::vector<Expected>>& truth) {
  std::vector<GenOp> ops(stream.size());
  std::size_t mutation_ordinal = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const StreamOp& op = stream[i];
    ops[i].due_seconds = op.due_seconds;
    if (op.mutation && !cycle.mutations.empty()) {
      const ifls::Mutation& m =
          cycle.mutations[mutation_ordinal++ % cycle.mutations.size()];
      ifls::WireMutateRequest request;
      request.kind = m.kind;
      request.partition = m.partition;
      ops[i].frame = ifls::EncodeMutateFrame(i + 1, request);
      ops[i].ordered = true;
    } else {
      ifls::WireQueryRequest request;
      request.clients = bodies[op.body].clients;
      ops[i].frame =
          ifls::EncodeQueryFrame(i + 1, bodies[op.body].objective, request);
    }
  }
  IFLS_ASSIGN_OR_RETURN(GenReport report,
                        RunWireLoad(port, connections, LoopMode::kOpen, ops,
                                    /*timeout_seconds=*/30.0));

  StreamStats stats;
  stats.attempted = ops.size();
  std::vector<Window> muts;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const GenOutcome& out = report.ops[i];
    if (!ops[i].ordered) continue;
    // The cycle model needs every mutation applied in order; a lost or
    // refused one leaves the server in an unknown state.
    if (!out.done || out.opcode != ifls::WireOpcode::kMutateResult) {
      return Status::Internal("mutation " + std::to_string(i) +
                              " was not applied");
    }
    muts.push_back({out.sent_seconds, out.done_seconds});
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const GenOutcome& out = report.ops[i];
    if (out.done || out.sent_seconds > 0.0) {
      stats.late_ms.push_back((out.sent_seconds - out.intended_seconds) * 1e3);
    }
    if (ops[i].ordered) continue;
    if (!out.done || out.opcode != ifls::WireOpcode::kQueryResult) {
      ++stats.failed;  // timeout, shed or error frame
      continue;
    }
    IFLS_ASSIGN_OR_RETURN(ifls::WireQueryResponse reply,
                          ifls::DecodeQueryResponse(out.payload));
    if (!MatchesLiveState(out.sent_seconds, out.done_seconds, muts, cycle,
                          truth, stream[i].body, reply.found,
                          reply.answer, reply.objective)) {
      ++stats.failed;
      ++stats.mismatches;
      continue;
    }
    stats.query_ms.push_back(out.latency_seconds() * 1e3);
  }
  return stats;
}

Result<ReplayStats> ReplayInProcess(
    ifls::IflsService* service, const std::vector<StreamOp>& stream,
    const std::vector<QueryBody>& bodies, const FacilityCycle& cycle,
    const std::vector<std::vector<Expected>>& truth) {
  struct Slot {
    double sent = 0.0;
    double done = 0.0;
    bool answered = false;
    ifls::ServiceReply reply;
  };
  std::vector<Slot> slots(stream.size());
  std::mutex mu;
  std::vector<Window> muts;
  ReplayStats stats;
  std::size_t mutation_ordinal = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    SleepUntil(start, stream[i].due_seconds);
    if (stream[i].mutation && !cycle.mutations.empty()) {
      const ifls::Mutation& m =
          cycle.mutations[mutation_ordinal++ % cycle.mutations.size()];
      const double sent = SecondsSince(start);
      Stopwatch watch;
      IFLS_RETURN_NOT_OK(service->Mutate(m));
      stats.mutate_ms.push_back(watch.ElapsedSeconds() * 1e3);
      muts.push_back({sent, SecondsSince(start)});
      stats.overlay_size_max =
          std::max(stats.overlay_size_max, service->Metrics().overlay_size);
      continue;
    }
    slots[i].sent = SecondsSince(start);
    // A refused query never gets its callback; it stays unanswered and is
    // counted once, below.
    (void)service->SubmitQueryAsync(
        RequestFor(bodies[stream[i].body]),
        [&slots, &mu, &start, i](ifls::ServiceReply reply) {
          const double done = SecondsSince(start);
          std::lock_guard<std::mutex> lock(mu);
          slots[i].done = done;
          slots[i].answered = true;
          slots[i].reply = std::move(reply);
        });
  }
  service->Drain();
  stats.mutations = mutation_ordinal;
  std::lock_guard<std::mutex> lock(mu);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].mutation && !cycle.mutations.empty()) continue;
    const Slot& slot = slots[i];
    if (!slot.answered || !slot.reply.status.ok()) {
      ++stats.failed;
      continue;
    }
    if (!MatchesLiveState(slot.sent, slot.done, muts, cycle, truth,
                          stream[i].body, slot.reply.result.found,
                          slot.reply.result.answer,
                          slot.reply.result.objective)) {
      ++stats.mismatches;
      continue;
    }
    stats.queue_ms.push_back(slot.reply.queue_seconds * 1e3);
    stats.residency_ms.push_back(
        (slot.reply.queue_seconds + slot.reply.solve_seconds) * 1e3);
  }
  return stats;
}

void SetTail(RunResult* result, const std::string& name,
             const std::vector<double>& samples, const std::string& unit) {
  const Result<double> p99 = P99(samples);
  if (p99.ok()) {
    result->metrics.Set(name, *p99, unit);
    return;
  }
  const double q = SupportedTailQuantile(samples.size());
  result->metrics.Set(name, Percentile(samples, q), unit);
  result->notes.push_back(
      {name, "holds " + QuantileLabel(q) + " of " +
                 std::to_string(samples.size()) +
                 " samples (p99 needs >= 1000)"});
}

Status ProbeCoreIndex(const ifls::Venue& venue,
                      const ifls::VipTreeOptions& tree_options,
                      const FacilityCycle& cycle,
                      const std::vector<QueryBody>& bodies, MetricSet* out) {
  std::vector<double> build_ms;
  std::unique_ptr<ifls::VipTree> tree;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    IFLS_ASSIGN_OR_RETURN(ifls::VipTree built,
                          ifls::VipTree::Build(&venue, tree_options));
    build_ms.push_back(watch.ElapsedSeconds() * 1e3);
    tree = std::make_unique<ifls::VipTree>(std::move(built));
  }
  out->Set("index.build_ms", Median(build_ms), "ms");

  std::vector<double> solve_ms[3];
  ifls::QueryStats sum;
  std::int64_t clients = 0;
  std::int64_t peak_bytes = 0;
  const std::vector<PartitionId> existing = cycle.ExistingAt(0);
  for (const QueryBody& body : bodies) {
    ifls::IflsContext ctx;
    ctx.oracle = tree.get();
    ctx.existing = existing;
    ctx.candidates = cycle.candidates;
    ctx.clients = body.clients;
    Stopwatch watch;
    IFLS_ASSIGN_OR_RETURN(ifls::IflsResult r,
                          ifls::SolveWithObjective(body.objective, ctx));
    solve_ms[static_cast<int>(body.objective)].push_back(
        watch.ElapsedSeconds() * 1e3);
    const ifls::QueryStats& s = r.stats;
    sum.distance_computations += s.distance_computations;
    sum.lower_bound_computations += s.lower_bound_computations;
    sum.queue_pops += s.queue_pops;
    sum.check_list_calls += s.check_list_calls;
    sum.check_answer_calls += s.check_answer_calls;
    sum.clients_pruned += s.clients_pruned;
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
    sum.kernel_invocations += s.kernel_invocations;
    sum.dijkstra_fallbacks += s.dijkstra_fallbacks;
    sum.matrix_lookups += s.matrix_lookups;
    sum.door_distance_evals += s.door_distance_evals;
    clients += static_cast<std::int64_t>(body.clients.size());
    peak_bytes = std::max(peak_bytes, s.peak_memory_bytes);
  }
  out->Set("core.solve_p50_ms.minmax", Median(solve_ms[0]), "ms");
  out->Set("core.solve_p50_ms.mindist", Median(solve_ms[1]), "ms");
  out->Set("core.solve_p50_ms.maxsum", Median(solve_ms[2]), "ms");
  const double n = static_cast<double>(std::max<std::size_t>(1, bodies.size()));
  auto per_query = [n](auto v) { return static_cast<double>(v) / n; };
  out->Set("core.distance_computations", per_query(sum.distance_computations),
           "count");
  out->Set("core.lower_bounds", per_query(sum.lower_bound_computations),
           "count");
  out->Set("core.queue_pops", per_query(sum.queue_pops), "count");
  out->Set("core.check_list_calls", per_query(sum.check_list_calls), "count");
  out->Set("core.check_answer_calls", per_query(sum.check_answer_calls),
           "count");
  out->Set("core.prune_rate",
           clients > 0 ? static_cast<double>(sum.clients_pruned) /
                             static_cast<double>(clients)
                       : 0.0,
           "ratio");
  out->Set("core.peak_query_mb", static_cast<double>(peak_bytes) / (1 << 20),
           "MiB");
  const double lookups =
      static_cast<double>(sum.cache_hits + sum.cache_misses);
  out->Set("index.door_cache_hit_rate",
           lookups > 0 ? static_cast<double>(sum.cache_hits) / lookups : 0.0,
           "ratio");
  out->Set("index.kernel_invocations", per_query(sum.kernel_invocations),
           "count");
  out->Set("index.dijkstra_fallbacks", per_query(sum.dijkstra_fallbacks),
           "count");
  out->Set("index.matrix_lookups", per_query(sum.matrix_lookups), "count");
  out->Set("index.door_distance_evals", per_query(sum.door_distance_evals),
           "count");

  // iDist between consecutive clients of the bodies, on the warm tree.
  std::vector<std::pair<const Client*, const Client*>> pairs;
  for (const QueryBody& body : bodies) {
    for (std::size_t i = 0; i + 1 < body.clients.size() && pairs.size() < 4096;
         i += 2) {
      pairs.push_back({&body.clients[i], &body.clients[i + 1]});
    }
  }
  std::size_t calls = 0;
  double sink = 0.0;
  Stopwatch watch;
  while (!pairs.empty() && (calls == 0 || watch.ElapsedSeconds() < 0.2)) {
    for (const auto& [a, b] : pairs) {
      sink += tree->PointToPoint(a->position, a->partition, b->position,
                                 b->partition);
    }
    calls += pairs.size();
  }
  out->Set("index.idist_us",
           calls > 0 ? watch.ElapsedSeconds() * 1e6 / static_cast<double>(calls)
                     : 0.0,
           "us");
  return sink >= 0.0 ? Status::OK() : Status::Internal("negative distance");
}

void ProbeCodec(const std::vector<QueryBody>& bodies, MetricSet* out) {
  std::vector<std::string> frames;
  std::size_t encoded = 0;
  Stopwatch encode_watch;
  while (encoded == 0 || encode_watch.ElapsedSeconds() < 0.1) {
    frames.clear();
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      ifls::WireQueryRequest request;
      request.clients = bodies[i].clients;
      frames.push_back(
          ifls::EncodeQueryFrame(i + 1, bodies[i].objective, request));
    }
    encoded += bodies.size();
  }
  const double encode_s = encode_watch.ElapsedSeconds();

  std::size_t decoded = 0;
  std::size_t clients = 0;
  Stopwatch decode_watch;
  while (decoded == 0 || decode_watch.ElapsedSeconds() < 0.1) {
    for (const std::string& frame : frames) {
      ifls::ByteRing ring;
      ring.Append(frame.data(), frame.size());
      Result<std::optional<ifls::WireFrame>> got = ifls::TryDecodeFrame(&ring);
      IFLS_CHECK(got.ok() && got->has_value()) << "codec probe decode failed";
      Result<ifls::WireQueryRequest> request =
          ifls::DecodeQueryRequest((*got)->payload);
      IFLS_CHECK(request.ok()) << request.status().ToString();
      clients += request->clients.size();
    }
    decoded += frames.size();
  }
  const double decode_s = decode_watch.ElapsedSeconds();
  IFLS_CHECK(clients > 0);
  out->Set("net.wire_encode_us", encode_s * 1e6 / static_cast<double>(encoded),
           "us");
  out->Set("net.wire_decode_us", decode_s * 1e6 / static_cast<double>(decoded),
           "us");
}

Result<WirePass> RunWirePass(const ServingSetup& setup, int connections,
                             const std::vector<StreamOp>& stream,
                             const std::vector<QueryBody>& bodies,
                             const FacilityCycle& cycle,
                             const std::vector<std::vector<Expected>>& truth) {
  IFLS_ASSIGN_OR_RETURN(
      std::unique_ptr<ifls::IflsService> owned,
      ifls::IflsService::CreateFromParts(setup.venue, setup.tree,
                                         cycle.existing, cycle.candidates,
                                         setup.service));
  std::shared_ptr<ifls::IflsService> service = std::move(owned);
  IFLS_ASSIGN_OR_RETURN(std::unique_ptr<ifls::IflsServer> server,
                        ifls::IflsServer::Create(service, setup.server));

  std::vector<GenOp> warm(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    ifls::WireQueryRequest request;
    request.clients = bodies[i].clients;
    warm[i].frame = ifls::EncodeQueryFrame(i + 1, bodies[i].objective, request);
  }
  IFLS_ASSIGN_OR_RETURN(GenReport warmed,
                        RunWireLoad(server->port(), connections,
                                    LoopMode::kClosed, warm, 30.0));
  WirePass pass;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const GenOutcome& out = warmed.ops[i];
    bool ok = out.done && out.opcode == ifls::WireOpcode::kQueryResult;
    if (ok) {
      IFLS_ASSIGN_OR_RETURN(ifls::WireQueryResponse reply,
                            ifls::DecodeQueryResponse(out.payload));
      ok = SameAnswer(truth[0][i], reply.found, reply.answer, reply.objective);
    }
    if (!ok) {
      ++pass.stats.failed;
      ++pass.stats.mismatches;
    }
  }
  IFLS_ASSIGN_OR_RETURN(StreamStats stats,
                        DriveWireStream(server->port(), connections, stream,
                                        bodies, cycle, truth));
  stats.failed += pass.stats.failed;
  stats.mismatches += pass.stats.mismatches;
  pass.stats = std::move(stats);
  pass.net = server->Metrics();
  server->Stop();
  pass.service = service->Metrics();
  service->Stop();
  return pass;
}

Status ProbeServing(const ServingSetup& setup, const WirePass& wire,
                    const std::vector<StreamOp>& stream,
                    const std::vector<QueryBody>& bodies,
                    const FacilityCycle& cycle,
                    const std::vector<std::vector<Expected>>& truth,
                    RunResult* result) {
  MetricSet* out = &result->metrics;
  out->Set("net.batched_share",
           wire.net.queries > 0 ? static_cast<double>(wire.net.batched_queries) /
                                      static_cast<double>(wire.net.queries)
                                : 0.0,
           "ratio");
  out->Set("net.rejected", static_cast<double>(wire.net.rejected), "count");
  SetTail(result, "net.gen_late_p99_ms", wire.stats.late_ms, "ms");
  out->Set("service.compactions",
           static_cast<double>(wire.service.compactions), "count");
  out->Set("service.shed", static_cast<double>(wire.service.shed), "count");
  out->Set("service.deadline_expired",
           static_cast<double>(wire.service.deadline_expired), "count");

  IFLS_ASSIGN_OR_RETURN(
      std::unique_ptr<ifls::IflsService> service,
      ifls::IflsService::CreateFromParts(setup.venue, setup.tree,
                                         cycle.existing, cycle.candidates,
                                         setup.service));
  IFLS_ASSIGN_OR_RETURN(ReplayStats replay,
                        ReplayInProcess(service.get(), stream, bodies, cycle,
                                        truth));
  result->attempted += stream.size();
  result->mismatches += replay.mismatches;
  result->failed += replay.failed + replay.mismatches;
  out->Set("service.queue_p50_ms", Median(replay.queue_ms), "ms");
  SetTail(result, "service.queue_p99_ms", replay.queue_ms, "ms");
  const double residency_p50 = Median(replay.residency_ms);
  out->Set("service.residency_p50_ms", residency_p50, "ms");
  out->Set("net.overhead_p50_ms", Median(wire.stats.query_ms) - residency_p50,
           "ms");
  out->Set("service.overlay_size_max",
           static_cast<double>(replay.overlay_size_max), "count");

  // Mutate and CompactNow timed on their own: step the cycle, fold it.
  std::vector<double> mutate_ms = replay.mutate_ms;
  std::vector<double> compact_ms;
  std::size_t ordinal = replay.mutations;
  for (int rep = 0; rep < 8 && !cycle.mutations.empty(); ++rep) {
    const ifls::Mutation& m =
        cycle.mutations[ordinal++ % cycle.mutations.size()];
    Stopwatch mutate_watch;
    IFLS_RETURN_NOT_OK(service->Mutate(m));
    mutate_ms.push_back(mutate_watch.ElapsedSeconds() * 1e3);
    Stopwatch compact_watch;
    IFLS_RETURN_NOT_OK(service->CompactNow());
    compact_ms.push_back(compact_watch.ElapsedSeconds() * 1e3);
  }
  service->Stop();
  out->Set("service.mutate_p50_ms", Median(mutate_ms), "ms");
  out->Set("service.compact_ms", Median(compact_ms), "ms");
  return Status::OK();
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

Status ProbeSingleVenueFleet(const std::string& dir, const ifls::Venue& venue,
                             const ifls::VipTree& tree,
                             const FacilityCycle& cycle,
                             const std::vector<QueryBody>& bodies,
                             const std::vector<Expected>& truth,
                             MetricSet* out) {
  const std::string id = "v000";
  const std::string venue_dir = dir + "/" + id;
  std::vector<double> write_ms;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    IFLS_RETURN_NOT_OK(ifls::WriteVenueSnapshot(
        venue_dir, venue, tree, cycle.existing, cycle.candidates));
    write_ms.push_back(watch.ElapsedSeconds() * 1e3);
  }
  out->Set("fleet.write_ms", Median(write_ms), "ms");
  out->Set("fleet.dir_bytes_per_venue",
           static_cast<double>(DirectoryBytes(venue_dir)), "bytes");

  std::vector<double> load_ms;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch watch;
    IFLS_ASSIGN_OR_RETURN(
        ifls::LoadedVenueSnapshot loaded,
        ifls::LoadVenueSnapshot(venue_dir, ifls::SnapshotLoadMode::kMmap));
    load_ms.push_back(watch.ElapsedSeconds() * 1e3);
  }
  out->Set("fleet.load_snapshot_ms", Median(load_ms), "ms");

  IFLS_ASSIGN_OR_RETURN(std::unique_ptr<ifls::VenueRouter> router,
                        ifls::VenueRouter::Open(dir));
  std::vector<double> hydrate_ms;
  for (int rep = 0; rep < 5; ++rep) {
    IFLS_RETURN_NOT_OK(router->Evict(id));
    Stopwatch watch;
    IFLS_RETURN_NOT_OK(router->Preload(id));
    hydrate_ms.push_back(watch.ElapsedSeconds() * 1e3);
  }
  out->Set("fleet.hydrate_ms", Median(hydrate_ms), "ms");
  // Queries through the router: all hits after the hydrations above.
  const std::size_t probes = std::min<std::size_t>(bodies.size(), 6);
  for (std::size_t i = 0; i < probes; ++i) {
    const ifls::ServiceReply reply = router->Query(id, RequestFor(bodies[i]));
    IFLS_RETURN_NOT_OK(reply.status);
    if (!SameAnswer(truth[i], reply.result.found, reply.result.answer,
                    reply.result.objective)) {
      return Status::Internal("fleet probe answer differs from ground truth");
    }
  }
  const ifls::VenueRouterMetrics rm = router->Metrics();
  out->Set("fleet.hit_rate",
           rm.hits + rm.loads > 0 ? static_cast<double>(rm.hits) /
                                        static_cast<double>(rm.hits + rm.loads)
                                  : 0.0,
           "ratio");
  out->Set("fleet.evictions", static_cast<double>(rm.evictions), "count");
  out->Set("fleet.resident_mb", static_cast<double>(rm.resident_bytes) / (1 << 20),
           "MiB");
  out->Set("fleet.mapped_mb", static_cast<double>(rm.mapped_bytes) / (1 << 20),
           "MiB");
  return Status::OK();
}

}  // namespace e2ebench
