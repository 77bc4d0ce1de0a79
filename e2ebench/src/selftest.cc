// Self-tests of the benchmark's own machinery: the Poisson schedule, the
// open-loop latency accounting, the percentile helper and the fleet_churn
// skew. Run: e2ebench_selftest (exit 0 = all passed), or
// `python3 e2ebench/run.py --selftest`.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "e2ebench/src/stats.h"
#include "e2ebench/src/wire_gen.h"
#include "e2ebench/src/workloads.h"
#include "src/net/socket.h"

namespace e2ebench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expectation failed: %s\n", __FILE__, \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (false)

void PoissonScheduleIsDeterministic() {
  const std::vector<double> a = PoissonSchedule(7, 1000, 10.0);
  const std::vector<double> b = PoissonSchedule(7, 1000, 10.0);
  const std::vector<double> c = PoissonSchedule(8, 1000, 10.0);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(a.size() == 1000);
  EXPECT(std::is_sorted(a.begin(), a.end()));
  EXPECT(a.front() >= 0.0 && a.back() < 10.0);
  // Exponential gaps: mean span/count, coefficient of variation near 1.
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double gap = a[i] - a[i - 1];
    sum += gap;
    sq += gap * gap;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  EXPECT(mean > 0.009 && mean < 0.011);
  EXPECT(cv > 0.85 && cv < 1.15);
}

void P99RefusesSmallSamples() {
  std::vector<double> samples(999, 1.0);
  EXPECT(!P99(samples).ok());
  samples.push_back(2.0);
  EXPECT(P99(samples).ok());
  EXPECT(SupportedTailQuantile(1000) == 0.99);
  EXPECT(SupportedTailQuantile(999) == 0.98);
  EXPECT(SupportedTailQuantile(204) == 0.95);
  EXPECT(SupportedTailQuantile(30) == 0.5);
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(i);
  EXPECT(Percentile(ramp, 0.5) == 50.0);
  EXPECT(Percentile(ramp, 0.95) == 95.0);
}

/// A one-connection server that holds its first request for `stall` before
/// answering anything, then answers every request at once.
void StallingServer(ifls::OwnedFd listener, std::chrono::milliseconds stall,
                    std::size_t expected) {
  pollfd pfd{listener.get(), POLLIN, 0};
  if (::poll(&pfd, 1, 5000) <= 0) return;
  ifls::OwnedFd conn(::accept(listener.get(), nullptr, nullptr));
  if (!conn.valid()) return;
  ifls::ByteRing ring;
  char buf[4096];
  std::size_t answered = 0;
  bool stalled = false;
  while (answered < expected) {
    const ssize_t n = ::read(conn.get(), buf, sizeof(buf));
    if (n <= 0) return;
    ring.Append(buf, static_cast<std::size_t>(n));
    if (!stalled) {
      std::this_thread::sleep_for(stall);
      stalled = true;
    }
    while (true) {
      ifls::Result<std::optional<ifls::WireFrame>> frame =
          ifls::TryDecodeFrame(&ring);
      if (!frame.ok() || !frame->has_value()) break;
      const std::string reply =
          ifls::EncodeQueryResultFrame((*frame)->request_id, {});
      if (::send(conn.get(), reply.data(), reply.size(), MSG_NOSIGNAL) < 0) {
        return;
      }
      ++answered;
    }
  }
}

/// Runs kOps requests due every 10 ms against a server that stalls its
/// first request for 300 ms. With `ordered`, each request may only go out
/// after the previous reply (as mutations do), so the generator itself is
/// held up by the stall.
void StallIsChargedToQueuedRequests(bool ordered) {
  std::uint16_t port = 0;
  ifls::Result<ifls::OwnedFd> listener = ifls::CreateTcpListener(0, &port);
  EXPECT(listener.ok());
  if (!listener.ok()) return;
  constexpr std::size_t kOps = 20;
  constexpr double kGap = 0.010;
  const std::chrono::milliseconds stall(300);
  std::thread server(StallingServer, std::move(*listener), stall, kOps);

  std::vector<GenOp> ops(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    ifls::WireQueryRequest request;
    ops[i].frame =
        ifls::EncodeQueryFrame(i + 1, ifls::IflsObjective::kMinMax, request);
    ops[i].due_seconds = 0.05 + kGap * static_cast<double>(i);
    ops[i].ordered = ordered;
  }
  ifls::Result<GenReport> report =
      RunWireLoad(port, 1, LoopMode::kOpen, ops, 5.0);
  server.join();
  EXPECT(report.ok());
  if (!report.ok()) return;
  // Nothing is answered before ~0.05 s + stall. Latency counts from each
  // request's due time, so every request due before then is charged the
  // part of the stall it was queued behind -- also when it could only be
  // sent after the stall (ordered), which send-time latency would hide.
  const double release = 0.05 + 0.3;
  for (std::size_t i = 0; i < kOps; ++i) {
    const GenOutcome& out = report->ops[i];
    EXPECT(out.done);
    EXPECT(out.intended_seconds == ops[i].due_seconds);
    EXPECT(out.latency_seconds() >= release - ops[i].due_seconds - 0.002);
    // Open loop: every request went out before the stalled first reply
    // came back, i.e. sending never waited for replies.
    if (!ordered) EXPECT(out.sent_seconds < report->ops[0].done_seconds);
  }
  if (ordered) {
    // Held behind the stall: sent late, yet charged from the due time.
    const GenOutcome& queued = report->ops[5];
    EXPECT(queued.sent_seconds >= release - 0.002);
    EXPECT(queued.latency_seconds() >
           queued.done_seconds - queued.sent_seconds + 0.2);
  }
}

void FleetSkewGivesIntendedMissShare() {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::vector<std::size_t> seq = FleetVenueSequence(seed, 2500);
    EXPECT(seq == FleetVenueSequence(seed, 2500));
    const double miss = LruMissShare(seq, kFleetResident);
    if (miss < 0.10 || miss > 0.20) {
      std::fprintf(stderr, "seed %llu: miss share %.3f\n",
                   static_cast<unsigned long long>(seed), miss);
    }
    EXPECT(miss >= 0.10 && miss <= 0.20);
  }
  // The LRU model itself: a cyclic scan one larger than the cache always
  // misses; a working set that fits only misses cold.
  EXPECT(LruMissShare({0, 1, 2, 0, 1, 2}, 2) == 1.0);
  EXPECT(LruMissShare({0, 1, 0, 1, 0, 1}, 2) == 2.0 / 6.0);
}

}  // namespace
}  // namespace e2ebench

int main() {
  using namespace e2ebench;
  PoissonScheduleIsDeterministic();
  P99RefusesSmallSamples();
  StallIsChargedToQueuedRequests(/*ordered=*/false);
  StallIsChargedToQueuedRequests(/*ordered=*/true);
  FleetSkewGivesIntendedMissShare();
  if (g_failures > 0) {
    std::fprintf(stderr, "e2ebench_selftest: %d expectation(s) failed\n",
                 g_failures);
    return 1;
  }
  std::fprintf(stderr, "e2ebench_selftest: all passed\n");
  return 0;
}
