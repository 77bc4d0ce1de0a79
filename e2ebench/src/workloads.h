#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include "e2ebench/src/harness.h"

namespace e2ebench {

/// Connections of the serving probes' wire traffic; the generator itself
/// runs on the calling thread.
inline constexpr int kConnections = 4;
/// Closed-loop connections of the fleet_churn pass.
inline constexpr int kFleetConnections = 2;

/// Heavy Menzies Building queries through BatchQueryEngine::Run.
ifls::Result<RunResult> RunBatchSolve(const RunConfig& config);

/// Closed-loop queries over kFleetConnections to a fleet server whose router
/// keeps half of 16 venues resident; Zipf-skewed venue choice.
ifls::Result<RunResult> RunFleetChurn(const RunConfig& config);

/// Fleet workload parameters shared with the self-tests.
inline constexpr std::size_t kFleetVenues = 16;
inline constexpr std::size_t kFleetResident = 8;
inline constexpr double kFleetZipfExponent = 1.5;

/// The fleet_churn venue sequence for `seed`: `count` venue indices drawn
/// Zipf over a seed-shuffled popularity order.
std::vector<std::size_t> FleetVenueSequence(std::uint64_t seed,
                                            std::size_t count);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
