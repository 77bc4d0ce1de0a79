#ifndef IFLS_NET_LOAD_GEN_H_
#define IFLS_NET_LOAD_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/solve_dispatch.h"
#include "src/indoor/types.h"

namespace ifls {

/// One query the load generator replays, with the in-process ground truth
/// every networked answer is differentially checked against (bit equality on
/// found/answer/objective — the server must be indistinguishable from
/// calling the service directly).
struct NetExpectation {
  IflsObjective objective = IflsObjective::kMinMax;
  std::vector<Client> clients;
  bool found = false;
  PartitionId answer = kInvalidPartition;
  double objective_value = 0.0;
};

struct LoadGenOptions {
  std::uint16_t port = 0;
  /// Concurrent connections, split across `num_threads` driver threads.
  std::size_t num_connections = 1024;
  int num_threads = 8;
  /// Requests in flight per connection (pipelining).
  int pipeline_depth = 1;
  /// Total queries per connection over the run.
  std::size_t queries_per_connection = 16;
  /// venue_id stamped on every request ("" = single-venue server).
  std::string venue_id;
};

struct LoadGenReport {
  std::size_t connections = 0;
  std::uint64_t completed = 0;   // responses verified ok
  std::uint64_t errors = 0;      // typed kError replies (incl. backpressure)
  std::uint64_t mismatches = 0;  // answers differing from ground truth
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double p999_seconds = 0.0;
};

/// Drives `options.num_connections` concurrent wire connections against a
/// running server: every connection cycles through `expectations`
/// (connection i starts at offset i, so concurrent queries mix objectives),
/// keeps `pipeline_depth` requests in flight, and checks each response
/// bit-identically against the expectation it was issued from. Fails (non-ok)
/// only on transport-level breakage; mismatches/errors are reported, not
/// thrown, so benches can assert on them explicitly.
Result<LoadGenReport> RunNetworkLoad(
    const LoadGenOptions& options,
    const std::vector<NetExpectation>& expectations);

}  // namespace ifls

#endif  // IFLS_NET_LOAD_GEN_H_
