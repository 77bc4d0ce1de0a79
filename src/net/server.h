#ifndef IFLS_NET_SERVER_H_
#define IFLS_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/service/service.h"
#include "src/service/venue_router.h"

namespace ifls {

/// Network front configuration.
struct ServerOptions {
  /// Loopback TCP port; 0 picks a free port (read it back via port()).
  std::uint16_t port = 0;
  /// Threads draining the dispatch queue (queries, mutations, subscription
  /// calls). Venue hydration and solves happen here, never on the event
  /// loop.
  int num_dispatchers = 2;
  /// Bound on queued dispatch jobs: the one admission point of networked
  /// queries, which run through IflsService::RunAdmitted and so skip the
  /// service's own admission queue (ServiceOptions::queue_capacity).
  /// Overflow is backpressure: the affected frames are answered with
  /// kError(kUnavailable) and counted in ifls_net_rejected_total; the
  /// connection stays open.
  std::size_t dispatch_queue_capacity = 256;
};

/// Aggregate server counters (process-wide mirrors live in the metrics
/// registry as ifls_net_*).
struct ServerMetrics {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;   // gauge
  std::uint64_t frames_received = 0;
  std::uint64_t queries = 0;
  /// Always 0: every query runs on its own. Kept because the end-to-end
  /// benchmark reads it (net.batched_share).
  std::uint64_t batched_queries = 0;
  std::uint64_t rejected = 0;         // kUnavailable backpressure replies
  std::uint64_t errors = 0;           // kError frames sent (incl. rejected)
  std::uint64_t pushes_sent = 0;      // subscription pushes streamed out
  std::uint64_t http_requests = 0;    // admin-plane requests served
};

/// The epoll event-loop network server (DESIGN.md §13): multiplexes
/// thousands of non-blocking loopback connections speaking the IFLS wire
/// protocol onto one IflsService (single-venue mode) or a VenueRouter
/// (fleet mode). A connection whose first four bytes are `GET ` (binary
/// frames start with the magic "IFLW", so the sniff is unambiguous) is
/// served as a minimal HTTP/1.0 admin plane on the same port instead:
/// /metrics (Prometheus exposition), /healthz, /venues, /slow
/// (DESIGN.md §15) — stock curl and a Prometheus scrape config work with
/// zero extra ports.
///
/// Threading model: one event-loop thread owns the listener, the epoll set
/// and every connection's receive side — reads, frame reassembly
/// (ByteRing), envelope validation and response flushing all happen there,
/// so connection state needs no locking beyond each connection's outbound
/// buffer (written by dispatcher threads and subscription callbacks, flushed
/// by the loop after an eventfd wake). Anything that may block — venue
/// hydration, admission, solver runs, mutations, subscribe/tick calls —
/// runs on the dispatcher pool.
///
/// Answer fidelity: a networked query runs the service's own Execute
/// (IflsService::RunAdmitted) on a dispatcher thread, so its reply is
/// bit-identical to calling IflsService::Query in process, and the same
/// deadline, spans, metrics and cost ledger apply (tests/net_server_test
/// locks this in).
class IflsServer {
 public:
  /// Single-venue server. `service` must outlive the server; requests with
  /// a non-empty venue_id are rejected as InvalidArgument.
  static Result<std::unique_ptr<IflsServer>> Create(
      std::shared_ptr<IflsService> service, const ServerOptions& options = {});

  /// Fleet server: venue_id routes through `router` (hydrating lazily).
  static Result<std::unique_ptr<IflsServer>> CreateFleet(
      std::shared_ptr<VenueRouter> router, const ServerOptions& options = {});

  ~IflsServer();

  IflsServer(const IflsServer&) = delete;
  IflsServer& operator=(const IflsServer&) = delete;

  /// The bound port (options.port, or the kernel-picked port when 0).
  std::uint16_t port() const { return port_; }

  /// Closes the listener and every connection, then joins the loop and
  /// dispatcher threads. Queued dispatch jobs still run (their replies are
  /// dropped on the closed connections). Idempotent; the destructor calls
  /// it. Stop the server before stopping the underlying service.
  void Stop();

  ServerMetrics Metrics() const;
  const ServerOptions& options() const { return options_; }

 private:
  struct Connection;
  /// State shared with service-owned completion/subscription callbacks,
  /// which may fire after the server object is gone (the service outlives
  /// it): the outbound flush handshake (queue + eventfd) and the counters
  /// those callbacks bump. Owned via shared_ptr; defined in server.cc.
  struct NetShared;

  IflsServer(std::shared_ptr<IflsService> service,
             std::shared_ptr<VenueRouter> router, ServerOptions options);
  Status Start();

  void LoopThread();
  void AcceptReady();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Decodes and routes every complete frame in the connection's ring.
  void DrainFrames(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn, WireFrame frame);
  /// Serves the HTTP admin plane (DESIGN.md §15) on a connection whose
  /// first bytes sniffed as `GET `: one request, one response, close. Loop
  /// thread only.
  void HandleHttp(const std::shared_ptr<Connection>& conn);
  /// The /venues JSON document: per-venue residency/eviction stats (fleet
  /// mode) or one synthetic always-resident entry (single-venue mode).
  std::string VenuesJson() const;
  void CloseConnection(const std::shared_ptr<Connection>& conn);

  /// Appends an encoded frame to the connection's outbound buffer and pokes
  /// the loop's eventfd. Static and shared_ptr-fed so service-owned
  /// callbacks can keep using it after the server object is gone; drops
  /// silently once the connection closed.
  static void EnqueueFrame(const std::shared_ptr<NetShared>& shared,
                           const std::shared_ptr<Connection>& conn,
                           std::string frame);
  /// EnqueueFrame of a kError frame; bumps the error/rejected counters
  /// (kUnavailable counts as backpressure).
  static void EnqueueError(const std::shared_ptr<NetShared>& shared,
                           const std::shared_ptr<Connection>& conn,
                           std::uint64_t request_id, const Status& status);
  /// Writes as much outbound data as the socket accepts; arms EPOLLOUT on
  /// partial writes. Loop thread only.
  void FlushOut(const std::shared_ptr<Connection>& conn);

  /// Drains the shared flush queue (loop thread, after each epoll cycle).
  void FlushPendingWrites();

  /// Enqueues a dispatcher job; false + dropped job when the dispatch queue
  /// is at capacity or the server is stopping (backpressure). `force`
  /// bypasses both for internal cleanup work (connection-close
  /// unsubscribes).
  bool Dispatch(std::function<void()> job, bool force = false);
  void DispatcherThread();

  /// Resolves the service a request routes to (single-venue or fleet). May
  /// hydrate — dispatcher threads only.
  Result<std::shared_ptr<IflsService>> Route(const std::string& venue_id);
  /// Ends a subscription without hydrating: in fleet mode through
  /// VenueRouter::Unsubscribe, so a cold venue is neither loaded nor made
  /// to evict another one.
  Status Unsubscribe(const std::string& venue_id,
                     std::uint64_t subscription_id);

  // Dispatcher-side request executors.
  /// `received_at` is the frame's decode time: the query's admission stamp,
  /// so its deadline and queue wait include the dispatch-queue hop.
  void RunQuery(std::shared_ptr<Connection> conn, std::uint64_t request_id,
                std::string venue_id, ServiceRequest request,
                std::chrono::steady_clock::time_point received_at);
  void RunMutate(std::shared_ptr<Connection> conn, std::uint64_t request_id,
                 WireMutateRequest request);
  void RunSubscribe(std::shared_ptr<Connection> conn, std::uint64_t request_id,
                    WireSubscribeRequest request);
  void RunTick(std::shared_ptr<Connection> conn, std::uint64_t request_id,
               WireTickRequest request);
  void RunUnsubscribe(std::shared_ptr<Connection> conn,
                      std::uint64_t request_id, WireUnsubscribeRequest request);

  void RegisterMetrics();

  const std::shared_ptr<IflsService> service_;  // single-venue mode
  const std::shared_ptr<VenueRouter> router_;   // fleet mode
  const ServerOptions options_;
  std::uint16_t port_ = 0;

  /// Flush handshake + counters; see NetShared.
  const std::shared_ptr<NetShared> shared_;

  OwnedFd listener_;
  OwnedFd epoll_;

  std::thread loop_;
  std::vector<std::thread> dispatchers_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  /// Loop-thread-owned connection table (fd -> connection).
  std::map<int, std::shared_ptr<Connection>> conns_;

  // Dispatch queue.
  std::mutex dispatch_mu_;
  std::condition_variable dispatch_cv_;
  std::deque<std::function<void()>> dispatch_jobs_;
  bool dispatch_stop_ = false;

  std::vector<MetricsRegistry::Registration> metric_registrations_;
};

}  // namespace ifls

#endif  // IFLS_NET_SERVER_H_
