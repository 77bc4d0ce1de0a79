#include "src/net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/common/json.h"
#include "src/common/trace.h"
#include "src/service/cost_ledger.h"

namespace ifls {

/// One accepted connection. The event-loop thread owns the receive side
/// (ring, epoll registration) without locks; the outbound buffer is the one
/// shared piece — dispatcher threads and service callbacks append under
/// out_mu, the loop flushes.
struct IflsServer::Connection {
  OwnedFd fd;

  // Loop thread only.
  ByteRing ring;
  bool want_write = false;  // EPOLLOUT armed
  /// Protocol sniffed from the connection's first four bytes: binary wire
  /// frames (magic "IFLW") or the HTTP admin plane ("GET ").
  enum class Mode { kUnknown, kBinary, kHttp };
  Mode mode = Mode::kUnknown;
  /// HTTP connections serve one response then close; set before the
  /// response is enqueued, honored by FlushOut once the buffer drains.
  bool close_when_drained = false;

  std::mutex out_mu;
  std::string out;          // encoded frames awaiting the socket
  std::size_t out_head = 0; // bytes of `out` already written
  bool closed = false;

  /// Wire subscriptions living on this connection: id -> routing venue.
  /// The Subscription shared_ptr pins nothing extra (the service owns it
  /// too); it is kept for observability and dropped on close/unsubscribe.
  std::mutex subs_mu;
  std::map<std::uint64_t,
           std::pair<std::string, std::shared_ptr<Subscription>>>
      subs;
};

struct IflsServer::NetShared {
  /// Dispatcher/callback -> loop handshake: append under mu, then poke the
  /// eventfd so the loop wakes and flushes.
  std::mutex mu;
  std::vector<std::shared_ptr<Connection>> flush_queue;
  OwnedFd wake;

  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_active{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> pushes_sent{0};
  std::atomic<std::uint64_t> http_requests{0};
};

void IflsServer::EnqueueFrame(const std::shared_ptr<NetShared>& shared,
                              const std::shared_ptr<Connection>& conn,
                              std::string frame) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
    conn->out.append(frame);
  }
  {
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->flush_queue.push_back(conn);
  }
  std::uint64_t one = 1;
  // A full eventfd counter (never in practice) only delays the flush to the
  // next natural wake; ignore the short-write case.
  [[maybe_unused]] ssize_t n =
      ::write(shared->wake.get(), &one, sizeof(one));
}

void IflsServer::EnqueueError(const std::shared_ptr<NetShared>& shared,
                              const std::shared_ptr<Connection>& conn,
                              std::uint64_t request_id, const Status& status) {
  shared->errors.fetch_add(1, std::memory_order_relaxed);
  if (status.code() == StatusCode::kUnavailable) {
    shared->rejected.fetch_add(1, std::memory_order_relaxed);
  }
  EnqueueFrame(shared, conn, EncodeErrorFrame(request_id, status));
}

namespace {

WireQueryResponse MakeQueryResponse(const ServiceReply& reply) {
  WireQueryResponse response;
  response.found = reply.result.found;
  response.answer = reply.result.answer;
  response.objective = reply.result.objective;
  response.snapshot_epoch = reply.snapshot_epoch;
  response.overlay_size = static_cast<std::uint64_t>(reply.overlay_size);
  return response;
}

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

Result<std::unique_ptr<IflsServer>> IflsServer::Create(
    std::shared_ptr<IflsService> service, const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("IflsServer::Create: null service");
  }
  std::unique_ptr<IflsServer> server(
      new IflsServer(std::move(service), nullptr, options));
  IFLS_RETURN_NOT_OK(server->Start());
  return server;
}

Result<std::unique_ptr<IflsServer>> IflsServer::CreateFleet(
    std::shared_ptr<VenueRouter> router, const ServerOptions& options) {
  if (router == nullptr) {
    return Status::InvalidArgument("IflsServer::CreateFleet: null router");
  }
  std::unique_ptr<IflsServer> server(
      new IflsServer(nullptr, std::move(router), options));
  IFLS_RETURN_NOT_OK(server->Start());
  return server;
}

IflsServer::IflsServer(std::shared_ptr<IflsService> service,
                       std::shared_ptr<VenueRouter> router,
                       ServerOptions options)
    : service_(std::move(service)),
      router_(std::move(router)),
      options_(std::move(options)),
      shared_(std::make_shared<NetShared>()) {}

IflsServer::~IflsServer() { Stop(); }

Status IflsServer::Start() {
  shared_->wake = OwnedFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!shared_->wake.valid()) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  IFLS_ASSIGN_OR_RETURN(listener_, CreateTcpListener(options_.port, &port_));
  epoll_ = OwnedFd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) {
    return Status::Internal(std::string("epoll_create1: ") +
                            std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listener_.get(), &ev) < 0) {
    return Status::Internal(std::string("epoll_ctl(listener): ") +
                            std::strerror(errno));
  }
  ev.data.fd = shared_->wake.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, shared_->wake.get(), &ev) <
      0) {
    return Status::Internal(std::string("epoll_ctl(wake): ") +
                            std::strerror(errno));
  }
  RegisterMetrics();
  int dispatchers = options_.num_dispatchers > 0 ? options_.num_dispatchers : 1;
  dispatchers_.reserve(static_cast<std::size_t>(dispatchers));
  for (int i = 0; i < dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatcherThread(); });
  }
  loop_ = std::thread([this] { LoopThread(); });
  started_ = true;
  return Status::OK();
}

void IflsServer::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(shared_->wake.get(), &one, sizeof(one));
  if (loop_.joinable()) loop_.join();
  // Cleanup jobs posted by the loop's teardown (unsubscribes) drain before
  // the stop flag lets the dispatchers exit.
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    dispatch_stop_ = true;
  }
  dispatch_cv_.notify_all();
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();
  metric_registrations_.clear();
}

ServerMetrics IflsServer::Metrics() const {
  ServerMetrics m;
  m.connections_accepted =
      shared_->connections_accepted.load(std::memory_order_relaxed);
  m.connections_active =
      shared_->connections_active.load(std::memory_order_relaxed);
  m.frames_received = shared_->frames_received.load(std::memory_order_relaxed);
  m.queries = shared_->queries.load(std::memory_order_relaxed);
  m.rejected = shared_->rejected.load(std::memory_order_relaxed);
  m.errors = shared_->errors.load(std::memory_order_relaxed);
  m.pushes_sent = shared_->pushes_sent.load(std::memory_order_relaxed);
  m.http_requests = shared_->http_requests.load(std::memory_order_relaxed);
  return m;
}

void IflsServer::RegisterMetrics() {
  // Process-wide series (no instance label): multiple servers in one
  // process accumulate, like the ifls_query_* rollups.
  auto& registry = MetricsRegistry::Global();
  std::shared_ptr<NetShared> shared = shared_;
  metric_registrations_.push_back(registry.RegisterCallbackCounter(
      "ifls_net_rejected_total", "", [shared] {
        return shared->rejected.load(std::memory_order_relaxed);
      }));
  metric_registrations_.push_back(registry.RegisterCallbackCounter(
      "ifls_net_frames_total", "", [shared] {
        return shared->frames_received.load(std::memory_order_relaxed);
      }));
  metric_registrations_.push_back(registry.RegisterCallbackCounter(
      "ifls_net_pushes_total", "", [shared] {
        return shared->pushes_sent.load(std::memory_order_relaxed);
      }));
  metric_registrations_.push_back(registry.RegisterCallbackGauge(
      "ifls_net_connections", "", [shared] {
        return static_cast<double>(
            shared->connections_active.load(std::memory_order_relaxed));
      }));
  metric_registrations_.push_back(registry.RegisterCallbackCounter(
      "ifls_net_http_requests_total", "", [shared] {
        return shared->http_requests.load(std::memory_order_relaxed);
      }));
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void IflsServer::LoopThread() {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_.get(), events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listener_.get()) {
        AcceptReady();
        continue;
      }
      if (fd == shared_->wake.get()) {
        std::uint64_t drained;
        while (::read(shared_->wake.get(), &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this cycle
      std::shared_ptr<Connection> conn = it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(conn);
      if ((events[i].events & EPOLLOUT) != 0 &&
          conns_.count(fd) != 0) {
        FlushOut(conn);
      }
    }
    FlushPendingWrites();
  }
  // Teardown: close every connection and queue their unsubscribes.
  std::vector<std::shared_ptr<Connection>> open;
  open.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) open.push_back(conn);
  for (auto& conn : open) CloseConnection(conn);
  conns_.clear();
}

void IflsServer::AcceptReady() {
  while (true) {
    int fd = ::accept4(listener_.get(), nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; the listener stays armed
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = OwnedFd(fd);
    (void)SetNoDelay(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
      continue;  // conn (and fd) die here
    }
    conns_.emplace(fd, std::move(conn));
    shared_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    shared_->connections_active.fetch_add(1, std::memory_order_relaxed);
  }
}

void IflsServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  while (true) {
    ssize_t n = ::read(conn->fd.get(), buf, sizeof(buf));
    if (n > 0) {
      conn->ring.Append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      CloseConnection(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn);
    return;
  }
  DrainFrames(conn);
}

void IflsServer::DrainFrames(const std::shared_ptr<Connection>& conn) {
  // Protocol sniff on the first four bytes: binary frames always start with
  // the magic "IFLW", so `GET ` can only be an HTTP admin request. Anything
  // else falls to the binary decoder, which rejects it as a bad envelope.
  if (conn->mode == Connection::Mode::kUnknown) {
    if (conn->ring.size() < 4) return;  // not enough to sniff yet
    conn->mode = std::memcmp(conn->ring.data(), "GET ", 4) == 0
                     ? Connection::Mode::kHttp
                     : Connection::Mode::kBinary;
  }
  if (conn->mode == Connection::Mode::kHttp) {
    HandleHttp(conn);
    return;
  }
  while (true) {
    Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&conn->ring);
    if (!decoded.ok()) {
      // Unsynchronized stream: best-effort typed error, then drop the
      // connection (the error may or may not flush before the RST).
      EnqueueError(shared_, conn, 0, decoded.status());
      FlushOut(conn);
      CloseConnection(conn);
      return;
    }
    if (!decoded.value().has_value()) return;  // incomplete: wait for bytes
    shared_->frames_received.fetch_add(1, std::memory_order_relaxed);
    HandleFrame(conn, std::move(*decoded.value()));
    // HandleFrame may close the connection (protocol violation).
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
  }
}

void IflsServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                             WireFrame frame) {
  const std::uint64_t id = frame.request_id;
  if (IsQueryOpcode(frame.opcode)) {
    Result<WireQueryRequest> request = DecodeQueryRequest(frame.payload);
    if (!request.ok()) {
      EnqueueError(shared_, conn, id, request.status());
      return;
    }
    shared_->queries.fetch_add(1, std::memory_order_relaxed);
    // Stamped at decode: the dispatch queue is this query's admission
    // queue, so its deadline and queue wait start here.
    const auto received_at = std::chrono::steady_clock::now();
    ServiceRequest query;
    query.objective = ObjectiveForQueryOpcode(frame.opcode);
    query.clients = std::move(request.value().clients);
    query.deadline_seconds = request.value().deadline_seconds;
    if (frame.has_trace_context) {
      // Adopt the caller's context: the service's queue/solve spans land
      // under the client's trace id with the client's sampling verdict.
      query.trace_id = frame.trace_context.trace_id;
      query.trace_sampled = frame.trace_context.sampled;
      query.parent_span_id = frame.trace_context.parent_span_id;
    }
    if (!Dispatch([this, conn, id, venue = std::move(request.value().venue_id),
                   query = std::move(query), received_at]() mutable {
          RunQuery(conn, id, std::move(venue), std::move(query), received_at);
        })) {
      EnqueueError(shared_, conn, id,
                   Status::Unavailable("dispatch queue full"));
    }
    return;
  }
  switch (frame.opcode) {
    case WireOpcode::kPing: {
      // The pong carries receive/send stamps for the client's NTP-style
      // clock-offset estimate. Ping handling is synchronous on the loop
      // thread, so the two stamps bracket only the encode; the client
      // attributes the rest of the RTT to the network, which is exactly
      // what the offset math assumes.
      WirePongResponse pong;
      pong.server_recv_nanos = TraceNowNanos();
      pong.server_send_nanos = TraceNowNanos();
      EnqueueFrame(shared_, conn, EncodePongFrame(id, pong));
      return;
    }
    case WireOpcode::kMetricsPull:
      // Exposition is a registry walk — cheap enough to stay on the loop.
      EnqueueFrame(shared_, conn,
                   EncodeTextFrame(WireOpcode::kMetricsText, id,
                                   DumpMetricsText()));
      return;
    case WireOpcode::kTracePull: {
      std::ostringstream out;
      Status status = TraceRecorder::Global().ExportChromeTrace(out);
      if (!status.ok()) {
        EnqueueError(shared_, conn, id, status);
      } else {
        EnqueueFrame(shared_, conn,
                     EncodeTextFrame(WireOpcode::kTraceJson, id, out.str()));
      }
      return;
    }
    case WireOpcode::kMutate: {
      Result<WireMutateRequest> request = DecodeMutateRequest(frame.payload);
      if (!request.ok()) {
        EnqueueError(shared_, conn, id, request.status());
        return;
      }
      if (!Dispatch([this, conn, id, req = std::move(request).value()]() mutable {
            RunMutate(conn, id, std::move(req));
          })) {
        EnqueueError(shared_, conn, id,
                     Status::Unavailable("dispatch queue full"));
      }
      return;
    }
    case WireOpcode::kSubscribe: {
      Result<WireSubscribeRequest> request =
          DecodeSubscribeRequest(frame.payload);
      if (!request.ok()) {
        EnqueueError(shared_, conn, id, request.status());
        return;
      }
      if (!Dispatch([this, conn, id, req = std::move(request).value()]() mutable {
            RunSubscribe(conn, id, std::move(req));
          })) {
        EnqueueError(shared_, conn, id,
                     Status::Unavailable("dispatch queue full"));
      }
      return;
    }
    case WireOpcode::kSubscriptionTick: {
      Result<WireTickRequest> request = DecodeTickRequest(frame.payload);
      if (!request.ok()) {
        EnqueueError(shared_, conn, id, request.status());
        return;
      }
      if (!Dispatch([this, conn, id, req = std::move(request).value()]() mutable {
            RunTick(conn, id, std::move(req));
          })) {
        EnqueueError(shared_, conn, id,
                     Status::Unavailable("dispatch queue full"));
      }
      return;
    }
    case WireOpcode::kUnsubscribe: {
      Result<WireUnsubscribeRequest> request =
          DecodeUnsubscribeRequest(frame.payload);
      if (!request.ok()) {
        EnqueueError(shared_, conn, id, request.status());
        return;
      }
      if (!Dispatch([this, conn, id, req = std::move(request).value()]() mutable {
            RunUnsubscribe(conn, id, std::move(req));
          })) {
        EnqueueError(shared_, conn, id,
                     Status::Unavailable("dispatch queue full"));
      }
      return;
    }
    default:
      // Response opcodes (or future request kinds) are not valid here; the
      // envelope was sound, so answer typed and keep the stream.
      EnqueueError(shared_, conn, id,
                   Status::InvalidArgument(
                       std::string("unexpected opcode at server: ") +
                       WireOpcodeName(frame.opcode)));
      return;
  }
}

void IflsServer::HandleHttp(const std::shared_ptr<Connection>& conn) {
  // One request per connection, HTTP/1.0 style: wait for the header
  // terminator, answer, close. Everything served here is a registry walk
  // or a small JSON render — cheap enough to stay on the loop thread, like
  // the binary kMetricsPull path.
  const std::string_view buf(conn->ring.data(), conn->ring.size());
  const std::size_t end = buf.find("\r\n\r\n");
  if (end == std::string_view::npos) {
    constexpr std::size_t kMaxRequestBytes = 8192;
    if (buf.size() > kMaxRequestBytes) {
      conn->ring.Clear();
      conn->close_when_drained = true;
      EnqueueFrame(shared_, conn,
                   HttpResponse(400, "Bad Request", "text/plain",
                                "request too large\n"));
      FlushOut(conn);
    }
    return;  // incomplete request: wait for more bytes
  }
  shared_->http_requests.fetch_add(1, std::memory_order_relaxed);
  const std::string_view request_line = buf.substr(0, buf.find("\r\n"));
  std::string response;
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1 ||
      request_line.substr(0, sp1) != "GET" ||
      request_line.substr(sp2 + 1, 5) != "HTTP/") {
    response = HttpResponse(400, "Bad Request", "text/plain",
                            "malformed request line\n");
  } else {
    std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    target = target.substr(0, target.find('?'));
    if (target == "/metrics") {
      response = HttpResponse(
          200, "OK", "text/plain; version=0.0.4; charset=utf-8",
          DumpMetricsText());
    } else if (target == "/healthz") {
      response = HttpResponse(200, "OK", "text/plain", "ok\n");
    } else if (target == "/venues") {
      response = HttpResponse(200, "OK", "application/json", VenuesJson());
    } else if (target == "/slow") {
      response = HttpResponse(200, "OK", "application/json",
                              QueryCostLedger::Global().SlowQueriesJson());
    } else {
      response =
          HttpResponse(404, "Not Found", "text/plain", "not found\n");
    }
  }
  conn->ring.Clear();
  conn->close_when_drained = true;
  EnqueueFrame(shared_, conn, std::move(response));
  FlushOut(conn);
}

std::string IflsServer::VenuesJson() const {
  std::string out = "{\n  \"venues\": [";
  bool first = true;
  const auto emit = [&out, &first](const VenueEntryStats& v) {
    out += first ? "\n    {" : ",\n    {";
    first = false;
    out += "\"venue_id\": ";
    AppendJsonString(&out, v.venue_id);
    out += v.resident ? ", \"resident\": true" : ", \"resident\": false";
    out += ", \"resident_bytes\": " + std::to_string(v.resident_bytes);
    out += ", \"mapped_bytes\": " + std::to_string(v.mapped_bytes);
    out += ", \"loads\": " + std::to_string(v.loads);
    out += ", \"evictions\": " + std::to_string(v.evictions);
    out += "}";
  };
  if (router_ != nullptr) {
    for (const VenueEntryStats& v : router_->VenueStats()) emit(v);
  } else {
    // Single-venue mode: synthesize one always-resident entry so the
    // endpoint's shape does not depend on the serving mode.
    VenueEntryStats v;
    v.venue_id = service_->options().venue_label;
    v.resident = true;
    v.loads = 1;
    emit(v);
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void IflsServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
    conn->closed = true;
  }
  shared_->connections_active.fetch_sub(1, std::memory_order_relaxed);
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, conn->fd.get(), nullptr);
  conns_.erase(conn->fd.get());
  conn->fd.Reset();
  // Tear down the connection's standing subscriptions so the service stops
  // pushing into a dead stream. Forced past the capacity bound: cleanup
  // must not be sheddable.
  std::map<std::uint64_t, std::pair<std::string, std::shared_ptr<Subscription>>>
      subs;
  {
    std::lock_guard<std::mutex> lock(conn->subs_mu);
    subs.swap(conn->subs);
  }
  for (auto& [sub_id, entry] : subs) {
    std::string venue_id = entry.first;
    std::uint64_t id = sub_id;
    (void)Dispatch(
        [this, venue_id = std::move(venue_id), id] {
          Result<std::shared_ptr<IflsService>> svc = Route(venue_id);
          if (svc.ok()) (void)svc.value()->Unsubscribe(id);
        },
        /*force=*/true);
  }
}

void IflsServer::FlushPendingWrites() {
  std::vector<std::shared_ptr<Connection>> pending;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    pending.swap(shared_->flush_queue);
  }
  for (const auto& conn : pending) {
    if (conns_.count(conn->fd.get()) != 0) FlushOut(conn);
  }
}

void IflsServer::FlushOut(const std::shared_ptr<Connection>& conn) {
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
    while (conn->out_head < conn->out.size()) {
      ssize_t n = ::write(conn->fd.get(), conn->out.data() + conn->out_head,
                          conn->out.size() - conn->out_head);
      if (n > 0) {
        conn->out_head += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN (socket full) or a real error surfacing via epoll
    }
    if (conn->out_head >= conn->out.size()) {
      conn->out.clear();
      conn->out_head = 0;
      drained = true;
    }
  }
  if (drained && conn->close_when_drained) {
    // HTTP admin plane: the whole response is out, honor Connection: close.
    CloseConnection(conn);
    return;
  }
  if (drained == conn->want_write) {
    // Toggle EPOLLOUT: armed while a partial write is pending, off once the
    // buffer drains (level-triggered EPOLLOUT would spin otherwise).
    conn->want_write = !drained;
    epoll_event ev{};
    ev.events = EPOLLIN | (conn->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
    ev.data.fd = conn->fd.get();
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev);
  }
}

// ---------------------------------------------------------------------------
// Dispatchers
// ---------------------------------------------------------------------------

bool IflsServer::Dispatch(std::function<void()> job, bool force) {
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    if (dispatch_stop_) return false;
    if (!force && (stopping_.load(std::memory_order_acquire) ||
                   dispatch_jobs_.size() >= options_.dispatch_queue_capacity)) {
      return false;
    }
    dispatch_jobs_.push_back(std::move(job));
  }
  dispatch_cv_.notify_one();
  return true;
}

void IflsServer::DispatcherThread() {
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(dispatch_mu_);
      dispatch_cv_.wait(lock, [this] {
        return dispatch_stop_ || !dispatch_jobs_.empty();
      });
      if (dispatch_jobs_.empty()) return;  // stop && drained
      job = std::move(dispatch_jobs_.front());
      dispatch_jobs_.pop_front();
    }
    job();
  }
}

Result<std::shared_ptr<IflsService>> IflsServer::Route(
    const std::string& venue_id) {
  if (service_ != nullptr) {
    if (!venue_id.empty()) {
      return Status::InvalidArgument(
          "single-venue server: venue_id must be empty, got \"" + venue_id +
          "\"");
    }
    return service_;
  }
  return router_->Service(venue_id);
}

void IflsServer::RunQuery(std::shared_ptr<Connection> conn,
                          std::uint64_t request_id, std::string venue_id,
                          ServiceRequest request,
                          std::chrono::steady_clock::time_point received_at) {
  Result<std::shared_ptr<IflsService>> routed = Route(venue_id);
  if (!routed.ok()) {
    EnqueueError(shared_, conn, request_id, routed.status());
    return;
  }
  const ServiceReply reply =
      routed.value()->RunAdmitted(std::move(request), received_at);
  if (!reply.status.ok()) {
    EnqueueError(shared_, conn, request_id, reply.status);
    return;
  }
  EnqueueFrame(shared_, conn,
               EncodeQueryResultFrame(request_id, MakeQueryResponse(reply)));
}

void IflsServer::RunMutate(std::shared_ptr<Connection> conn,
                           std::uint64_t request_id,
                           WireMutateRequest request) {
  Result<std::shared_ptr<IflsService>> routed = Route(request.venue_id);
  if (!routed.ok()) {
    EnqueueError(shared_, conn, request_id, routed.status());
    return;
  }
  Mutation mutation;
  mutation.kind = request.kind;
  mutation.partition = request.partition;
  std::uint64_t applied_version = 0;
  Status status = routed.value()->Mutate(mutation, &applied_version);
  if (!status.ok()) {
    EnqueueError(shared_, conn, request_id, status);
    return;
  }
  WireMutateResponse response;
  response.applied_version = applied_version;
  EnqueueFrame(shared_, conn, EncodeMutateResultFrame(request_id, response));
}

void IflsServer::RunSubscribe(std::shared_ptr<Connection> conn,
                              std::uint64_t request_id,
                              WireSubscribeRequest request) {
  Result<std::shared_ptr<IflsService>> routed = Route(request.venue_id);
  if (!routed.ok()) {
    EnqueueError(shared_, conn, request_id, routed.status());
    return;
  }
  SubscriptionOptions sub_options;
  sub_options.tolerance = request.tolerance;
  std::shared_ptr<NetShared> shared = shared_;
  // Runs on service pump threads with the monitor lock held: encode and
  // enqueue only, never re-enter the service, never touch `this`.
  SubscriptionCallback callback = [shared, conn,
                                   request_id](const SubscriptionPush& push) {
    WireSubscriptionPush wire;
    wire.subscription_id = push.subscription_id;
    wire.sequence = push.sequence;
    wire.version = push.version;
    wire.ticks_applied = push.ticks_applied;
    wire.latency_seconds = push.latency_seconds;
    wire.found = push.result.found;
    wire.answer = push.result.answer;
    wire.objective = push.result.objective;
    shared->pushes_sent.fetch_add(1, std::memory_order_relaxed);
    EnqueueFrame(shared, conn, EncodePushFrame(request_id, wire));
  };
  Result<std::shared_ptr<Subscription>> subscribed = routed.value()->Subscribe(
      request.clients, sub_options, std::move(callback));
  if (!subscribed.ok()) {
    EnqueueError(shared_, conn, request_id, subscribed.status());
    return;
  }
  std::shared_ptr<Subscription> sub = std::move(subscribed).value();
  {
    std::lock_guard<std::mutex> lock(conn->subs_mu);
    conn->subs.emplace(sub->id(),
                       std::make_pair(request.venue_id, sub));
  }
  {
    // The connection may have closed between Subscribe and registration;
    // sweep immediately instead of leaking the standing query.
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) {
      (void)routed.value()->Unsubscribe(sub->id());
      std::lock_guard<std::mutex> subs_lock(conn->subs_mu);
      conn->subs.erase(sub->id());
      return;
    }
  }
  WireSubscribeResponse response;
  response.subscription_id = sub->id();
  EnqueueFrame(shared_, conn,
               EncodeSubscribeResultFrame(request_id, response));
}

void IflsServer::RunTick(std::shared_ptr<Connection> conn,
                         std::uint64_t request_id, WireTickRequest request) {
  Result<std::shared_ptr<IflsService>> routed = Route(request.venue_id);
  if (!routed.ok()) {
    EnqueueError(shared_, conn, request_id, routed.status());
    return;
  }
  Status status = routed.value()->TickSubscription(
      request.subscription_id, request.client, request.position,
      request.partition);
  if (!status.ok()) {
    EnqueueError(shared_, conn, request_id, status);
    return;
  }
  EnqueueFrame(shared_, conn,
               EncodeEmptyFrame(WireOpcode::kAck, request_id));
}

void IflsServer::RunUnsubscribe(std::shared_ptr<Connection> conn,
                                std::uint64_t request_id,
                                WireUnsubscribeRequest request) {
  Result<std::shared_ptr<IflsService>> routed = Route(request.venue_id);
  if (!routed.ok()) {
    EnqueueError(shared_, conn, request_id, routed.status());
    return;
  }
  Status status = routed.value()->Unsubscribe(request.subscription_id);
  {
    std::lock_guard<std::mutex> lock(conn->subs_mu);
    conn->subs.erase(request.subscription_id);
  }
  if (!status.ok()) {
    EnqueueError(shared_, conn, request_id, status);
    return;
  }
  EnqueueFrame(shared_, conn,
               EncodeEmptyFrame(WireOpcode::kAck, request_id));
}

}  // namespace ifls
