#include "src/net/load_gen.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "src/net/socket.h"
#include "src/net/wire.h"

namespace ifls {
namespace {

using Clock = std::chrono::steady_clock;

/// Exact-bits double comparison: the differential contract is bit identity,
/// not epsilon closeness.
bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct Inflight {
  std::size_t expectation = 0;
  Clock::time_point sent_at;
};

struct ConnState {
  OwnedFd fd;
  ByteRing ring;
  std::map<std::uint64_t, Inflight> inflight;
  std::uint64_t next_request_id = 1;
  std::size_t issued = 0;    // queries sent so far
  std::size_t next_exp = 0;  // rotating expectation cursor
  bool failed = false;
};

struct ThreadStats {
  std::vector<double> latencies;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  Status status;
};

Status WriteAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(std::string("load_gen send: ") +
                               std::strerror(errno));
  }
  return Status::OK();
}

Status SendNext(ConnState* conn, const LoadGenOptions& options,
                const std::vector<NetExpectation>& expectations) {
  const std::size_t idx = conn->next_exp;
  conn->next_exp = (conn->next_exp + 1) % expectations.size();
  const NetExpectation& exp = expectations[idx];
  WireQueryRequest request;
  request.venue_id = options.venue_id;
  request.clients = exp.clients;
  const std::uint64_t id = conn->next_request_id++;
  Inflight entry;
  entry.expectation = idx;
  entry.sent_at = Clock::now();
  IFLS_RETURN_NOT_OK(
      WriteAll(conn->fd.get(), EncodeQueryFrame(id, exp.objective, request)));
  conn->inflight.emplace(id, entry);
  ++conn->issued;
  return Status::OK();
}

/// Decodes every complete frame buffered on `conn`, verifies each response
/// against its expectation, and refills the pipeline. Transport breakage
/// surfaces as non-ok.
Status DrainConn(ConnState* conn, const LoadGenOptions& options,
                 const std::vector<NetExpectation>& expectations,
                 ThreadStats* stats) {
  while (true) {
    IFLS_ASSIGN_OR_RETURN(std::optional<WireFrame> frame,
                          TryDecodeFrame(&conn->ring));
    if (!frame.has_value()) return Status::OK();
    if (frame->opcode == WireOpcode::kSubscriptionPush) continue;  // ignore
    auto it = conn->inflight.find(frame->request_id);
    if (it == conn->inflight.end()) {
      return Status::Internal("response for unknown request id " +
                              std::to_string(frame->request_id));
    }
    const double latency =
        std::chrono::duration<double>(Clock::now() - it->second.sent_at)
            .count();
    const NetExpectation& exp = expectations[it->second.expectation];
    conn->inflight.erase(it);
    if (frame->opcode == WireOpcode::kError) {
      // Typed server-side error (backpressure etc.): counted, not fatal.
      ++stats->errors;
    } else if (frame->opcode != WireOpcode::kQueryResult) {
      return Status::Internal(std::string("unexpected opcode ") +
                              WireOpcodeName(frame->opcode));
    } else {
      IFLS_ASSIGN_OR_RETURN(WireQueryResponse response,
                            DecodeQueryResponse(frame->payload));
      if (response.found != exp.found || response.answer != exp.answer ||
          !BitEqual(response.objective, exp.objective_value)) {
        ++stats->mismatches;
      } else {
        ++stats->completed;
        stats->latencies.push_back(latency);
      }
    }
    if (conn->issued < options.queries_per_connection) {
      IFLS_RETURN_NOT_OK(SendNext(conn, options, expectations));
    }
  }
}

void DriveConnections(std::vector<ConnState>* conns,
                      const LoadGenOptions& options,
                      const std::vector<NetExpectation>& expectations,
                      ThreadStats* stats) {
  // Prime every pipeline.
  for (ConnState& conn : *conns) {
    const std::size_t depth = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(options.pipeline_depth, 1)),
        options.queries_per_connection);
    for (std::size_t i = 0; i < depth; ++i) {
      Status status = SendNext(&conn, options, expectations);
      if (!status.ok()) {
        conn.failed = true;
        stats->status = status;
        break;
      }
    }
  }
  std::vector<pollfd> fds;
  std::vector<ConnState*> order;
  char buf[64 * 1024];
  while (true) {
    fds.clear();
    order.clear();
    for (ConnState& conn : *conns) {
      if (conn.failed || !conn.fd.valid()) continue;
      if (conn.inflight.empty() &&
          conn.issued >= options.queries_per_connection) {
        conn.fd.Reset();  // done: close eagerly so the server reaps it
        continue;
      }
      fds.push_back(pollfd{conn.fd.get(), POLLIN, 0});
      order.push_back(&conn);
    }
    if (fds.empty()) return;
    int ready = ::poll(fds.data(), fds.size(), 10'000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      stats->status = Status::Internal(std::string("poll: ") +
                                       std::strerror(errno));
      return;
    }
    if (ready == 0) {
      stats->status = Status::DeadlineExceeded(
          "load_gen: no response within 10s across " +
          std::to_string(fds.size()) + " connections");
      return;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      ConnState* conn = order[i];
      ssize_t n = ::read(conn->fd.get(), buf, sizeof(buf));
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        conn->failed = true;
        stats->status =
            Status::Unavailable("load_gen: connection closed mid-run");
        continue;
      }
      conn->ring.Append(buf, static_cast<std::size_t>(n));
      Status status = DrainConn(conn, options, expectations, stats);
      if (!status.ok()) {
        conn->failed = true;
        stats->status = status;
      }
    }
  }
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::size_t idx = static_cast<std::size_t>(q * sorted.size());
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

Result<LoadGenReport> RunNetworkLoad(
    const LoadGenOptions& options,
    const std::vector<NetExpectation>& expectations) {
  if (expectations.empty()) {
    return Status::InvalidArgument("RunNetworkLoad: no expectations");
  }
  if (options.num_connections == 0 || options.queries_per_connection == 0) {
    return Status::InvalidArgument(
        "RunNetworkLoad: need connections and queries");
  }
  // Both ends of every connection live in this process during loopback
  // benches; leave generous headroom over 2x.
  IFLS_RETURN_NOT_OK(EnsureFdLimit(options.num_connections * 2 + 256));

  const int num_threads = std::max(options.num_threads, 1);
  std::vector<std::vector<ConnState>> per_thread(
      static_cast<std::size_t>(num_threads));
  for (std::size_t i = 0; i < options.num_connections; ++i) {
    IFLS_ASSIGN_OR_RETURN(OwnedFd fd, ConnectTcp(options.port));
    ConnState conn;
    conn.fd = std::move(fd);
    // Stagger each connection's starting expectation so concurrent queries
    // mix objectives and client sets.
    conn.next_exp = i % expectations.size();
    per_thread[i % static_cast<std::size_t>(num_threads)].push_back(
        std::move(conn));
  }

  std::vector<ThreadStats> stats(static_cast<std::size_t>(num_threads));
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      DriveConnections(&per_thread[static_cast<std::size_t>(t)], options,
                       expectations, &stats[static_cast<std::size_t>(t)]);
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  LoadGenReport report;
  report.connections = options.num_connections;
  report.wall_seconds = wall;
  std::vector<double> latencies;
  for (ThreadStats& s : stats) {
    if (!s.status.ok()) return s.status;
    report.completed += s.completed;
    report.errors += s.errors;
    report.mismatches += s.mismatches;
    latencies.insert(latencies.end(), s.latencies.begin(), s.latencies.end());
  }
  std::sort(latencies.begin(), latencies.end());
  report.qps = wall > 0.0 ? static_cast<double>(report.completed) / wall : 0.0;
  report.p50_seconds = Percentile(latencies, 0.50);
  report.p99_seconds = Percentile(latencies, 0.99);
  report.p999_seconds = Percentile(latencies, 0.999);
  return report;
}

}  // namespace ifls
