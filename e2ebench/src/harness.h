#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

// Shared pieces of the workloads: run configuration and result
// reporting, query bodies and the cycled facility states they are checked
// against, in-process ground truth, the wire stream runner with its answer
// gate, the in-process service replay, and the per-layer probes that time
// public calls into each module from outside.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "e2ebench/src/wire_gen.h"
#include "src/common/rng.h"
#include "src/core/solve_dispatch.h"
#include "src/index/vip_tree.h"
#include "src/indoor/venue.h"
#include "src/net/server.h"
#include "src/service/delta_overlay.h"
#include "src/service/service.h"

namespace e2ebench {

/// Command-line inputs of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for fleet snapshot files.
  std::string workdir;
  int nproc = 1;
};

/// Named metrics with units, printed in name order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Everything a workload reports. `mismatches` are answers that differ
/// from ground truth; they make the run incorrect.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  MetricSet metrics;
  /// Run envelope and notes (percentile actually reported, ...).
  std::vector<std::pair<std::string, std::string>> notes;
};

/// One query's inputs; the facility sets come from the serving state.
struct QueryBody {
  ifls::IflsObjective objective = ifls::IflsObjective::kMinMax;
  std::vector<ifls::Client> clients;
};

/// The bits a reply must reproduce.
struct Expected {
  bool found = false;
  ifls::PartitionId answer = ifls::kInvalidPartition;
  double objective = 0.0;
};

bool SameAnswer(const Expected& want, bool found, ifls::PartitionId answer,
                double objective);

/// Base facility sets plus a cycle of mutations that adds each spare room
/// as a facility and then removes them again, so applying the whole cycle
/// returns to the base. State k is the base after the first k mutations.
struct FacilityCycle {
  std::vector<ifls::PartitionId> existing;
  std::vector<ifls::PartitionId> candidates;
  std::vector<ifls::Mutation> mutations;

  std::size_t num_states() const { return std::max<std::size_t>(1, mutations.size()); }
  /// Sorted effective existing set of state k.
  std::vector<ifls::PartitionId> ExistingAt(std::size_t k) const;
};

FacilityCycle MakeCycle(std::vector<ifls::PartitionId> existing,
                        std::vector<ifls::PartitionId> candidates,
                        const std::vector<ifls::PartitionId>& spares);

/// `count` bodies: objectives cycle MinMax/MinDist/MaxSum; each body draws
/// `large_clients` clients with probability `large_share`, otherwise
/// `small_clients`.
std::vector<QueryBody> MakeBodies(const ifls::Venue& venue, std::size_t count,
                                  std::size_t small_clients,
                                  std::size_t large_clients,
                                  double large_share, ifls::Rng* rng);

/// Ground truth truth[state][body], solved in process on `tree` (a tree the
/// measured system does not share) with `threads` workers.
std::vector<std::vector<Expected>> ComputeTruth(
    const ifls::VipTree& tree, const FacilityCycle& cycle,
    const std::vector<QueryBody>& bodies, int threads);

/// One request of a mixed stream: a query of body `index`, or the next
/// mutation of the cycle.
struct StreamOp {
  bool mutation = false;
  std::size_t body = 0;
  double due_seconds = 0.0;
};

/// `count` ops on a Poisson schedule over `span_seconds`; each op is a
/// mutation with probability `mutation_share`, else a uniformly drawn body.
std::vector<StreamOp> MakeStream(std::uint64_t seed, std::size_t count,
                                 double span_seconds, double mutation_share,
                                 std::size_t num_bodies);

/// What one pass of a stream measured.
struct StreamStats {
  std::vector<double> query_ms;  // per answered query
  std::vector<double> late_ms;   // send lateness (open loop)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // errors + sheds + timeouts + mismatches
  std::uint64_t mismatches = 0;
};

/// Sends `stream` open loop over `connections` connections and checks every
/// reply against `truth`: a query must equal the truth of a cycle state
/// live at some point while it was in flight. The server starts in state 0.
ifls::Result<StreamStats> DriveWireStream(
    std::uint16_t port, int connections, const std::vector<StreamOp>& stream,
    const std::vector<QueryBody>& bodies, const FacilityCycle& cycle,
    const std::vector<std::vector<Expected>>& truth);

/// In-process replay of `stream` on `service` at the same schedule
/// (SubmitQueryAsync + timed Mutate), checking answers like the wire pass.
struct ReplayStats {
  std::vector<double> queue_ms;
  std::vector<double> residency_ms;  // queue + solve
  std::vector<double> mutate_ms;
  std::size_t overlay_size_max = 0;
  std::uint64_t failed = 0;  // shed or error replies
  std::uint64_t mismatches = 0;
  std::uint64_t mutations = 0;
};
ifls::Result<ReplayStats> ReplayInProcess(
    ifls::IflsService* service, const std::vector<StreamOp>& stream,
    const std::vector<QueryBody>& bodies, const FacilityCycle& cycle,
    const std::vector<std::vector<Expected>>& truth);

/// Sets `name` to the p99 of `samples` when there are >= 1000 of them,
/// else to the highest percentile with >= 10 samples beyond it, and notes
/// which one was reported.
void SetTail(RunResult* result, const std::string& name,
             const std::vector<double>& samples, const std::string& unit);

// ---- Per-layer probes (traced runs) ------------------------------------

/// core.* and index.* (except build_ms): a fresh tree built with
/// `tree_options`, then every body solved single-threaded against state 0,
/// so the counts repeat exactly for a seed. Also times PointToPoint on
/// client pairs (index.idist_us).
ifls::Status ProbeCoreIndex(const ifls::Venue& venue,
                            const ifls::VipTreeOptions& tree_options,
                            const FacilityCycle& cycle,
                            const std::vector<QueryBody>& bodies,
                            MetricSet* out);

/// net.wire_encode_us / net.wire_decode_us on the bodies' own frames.
void ProbeCodec(const std::vector<QueryBody>& bodies, MetricSet* out);

/// How a served venue is brought up: a fresh IflsService over `tree`
/// (CreateFromParts) behind a fresh IflsServer.
struct ServingSetup {
  std::shared_ptr<const ifls::Venue> venue;
  std::shared_ptr<const ifls::VipTree> tree;
  ifls::ServiceOptions service;
  ifls::ServerOptions server;
};

/// One served pass: counters of the server and service it ran against.
struct WirePass {
  StreamStats stats;
  ifls::ServerMetrics net;
  ifls::ServiceMetrics service;
};

/// Brings up `setup`, sends every body once closed loop (warm-up, checked
/// against state 0, not timed), then drives `stream` open loop.
ifls::Result<WirePass> RunWirePass(
    const ServingSetup& setup, int connections,
    const std::vector<StreamOp>& stream, const std::vector<QueryBody>& bodies,
    const FacilityCycle& cycle,
    const std::vector<std::vector<Expected>>& truth);

/// net.* and service.* metrics: server and service counters plus client
/// round trips from `wire`, queue and residency from replaying the same
/// stream in process on a fresh service over `setup.tree`, then Mutate and
/// CompactNow timed on that service.
ifls::Status ProbeServing(const ServingSetup& setup, const WirePass& wire,
                          const std::vector<StreamOp>& stream,
                          const std::vector<QueryBody>& bodies,
                          const FacilityCycle& cycle,
                          const std::vector<std::vector<Expected>>& truth,
                          RunResult* result);

/// fleet.* for a single-venue fleet directory holding this workload's venue
/// (batch_solve): write, load, hydrate through a VenueRouter and
/// query it; the router's answers must equal `truth` (state 0).
ifls::Status ProbeSingleVenueFleet(const std::string& dir,
                                   const ifls::Venue& venue,
                                   const ifls::VipTree& tree,
                                   const FacilityCycle& cycle,
                                   const std::vector<QueryBody>& bodies,
                                   const std::vector<Expected>& truth,
                                   MetricSet* out);

/// Directory size in bytes (regular files, recursive).
std::uint64_t DirectoryBytes(const std::string& dir);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
