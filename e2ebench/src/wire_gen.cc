#include "e2ebench/src/wire_gen.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

#include "src/net/socket.h"

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

struct Conn {
  ifls::OwnedFd fd;
  std::string out;
  std::size_t out_offset = 0;
  ifls::ByteRing in;
  std::size_t outstanding = 0;
};

ifls::Status FlushConn(Conn* conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd.get(), conn->out.data() + conn->out_offset,
               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return ifls::Status::Unavailable(std::string("send: ") +
                                       std::strerror(errno));
    }
    conn->out_offset += static_cast<std::size_t>(n);
  }
  if (conn->out_offset == conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
  }
  return ifls::Status::OK();
}

}  // namespace

ifls::Result<GenReport> RunWireLoad(std::uint16_t port, int connections,
                                    LoopMode mode,
                                    const std::vector<GenOp>& ops,
                                    double timeout_seconds) {
  if (connections < 1) {
    return ifls::Status::InvalidArgument("need at least one connection");
  }
  std::vector<Conn> conns(static_cast<std::size_t>(connections));
  for (Conn& conn : conns) {
    IFLS_ASSIGN_OR_RETURN(conn.fd, ifls::ConnectTcp(port));
    IFLS_RETURN_NOT_OK(ifls::SetNoDelay(conn.fd.get()));
    IFLS_RETURN_NOT_OK(ifls::SetNonBlocking(conn.fd.get()));
  }

  GenReport report;
  report.ops.resize(ops.size());
  const Clock::time_point start = Clock::now();
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::size_t next = 0;
  std::size_t completed = 0;
  std::deque<std::size_t> held;  // ordered ops waiting for their turn
  bool ordered_in_flight = false;
  double last_progress = 0.0;

  auto send_op = [&](std::size_t i, Conn* conn, double intended) {
    GenOutcome& out = report.ops[i];
    out.intended_seconds = intended;
    out.sent_seconds = now_s();
    conn->out.append(ops[i].frame);
    ++conn->outstanding;
    if (ops[i].ordered) ordered_in_flight = true;
  };

  std::vector<pollfd> fds(conns.size());
  char buf[64 * 1024];
  while (completed < ops.size()) {
    const double now = now_s();
    if (mode == LoopMode::kOpen) {
      while (next < ops.size() && ops[next].due_seconds <= now) {
        if (ops[next].ordered && (ordered_in_flight || !held.empty())) {
          held.push_back(next);
        } else {
          send_op(next, &conns[next % conns.size()], ops[next].due_seconds);
        }
        ++next;
      }
      if (!held.empty() && !ordered_in_flight) {
        const std::size_t i = held.front();
        held.pop_front();
        send_op(i, &conns[i % conns.size()], ops[i].due_seconds);
      }
    } else {
      for (Conn& conn : conns) {
        if (conn.outstanding == 0 && next < ops.size()) {
          send_op(next, &conn, now);
          ++next;
        }
      }
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      IFLS_RETURN_NOT_OK(FlushConn(&conns[c]));
      fds[c] = pollfd{conns[c].fd.get(),
                      static_cast<short>(POLLIN |
                                         (conns[c].out.empty() ? 0 : POLLOUT)),
                      0};
    }

    // Sleep until the next due send (open loop) or any socket event.
    double wait = 0.05;
    if (mode == LoopMode::kOpen && next < ops.size()) {
      wait = std::min(wait, std::max(0.0, ops[next].due_seconds - now_s()));
    }
    const timespec ts{static_cast<time_t>(wait),
                      static_cast<long>((wait - static_cast<double>(
                                                    static_cast<time_t>(wait))) *
                                        1e9)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      return ifls::Status::Internal(std::string("ppoll: ") +
                                    std::strerror(errno));
    }
    for (std::size_t c = 0; ready > 0 && c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& conn = conns[c];
      const ssize_t n = ::read(conn.fd.get(), buf, sizeof(buf));
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        return ifls::Status::Unavailable("server closed a connection");
      }
      conn.in.Append(buf, static_cast<std::size_t>(n));
      const double at = now_s();
      while (true) {
        IFLS_ASSIGN_OR_RETURN(std::optional<ifls::WireFrame> frame,
                              ifls::TryDecodeFrame(&conn.in));
        if (!frame.has_value()) break;
        const std::uint64_t id = frame->request_id;
        if (id == 0 || id > ops.size() || report.ops[id - 1].done) {
          return ifls::Status::Internal("reply for unknown request id " +
                                        std::to_string(id));
        }
        GenOutcome& out = report.ops[id - 1];
        out.done = true;
        out.done_seconds = at;
        out.opcode = frame->opcode;
        out.payload = std::move(frame->payload);
        --conn.outstanding;
        ++completed;
        if (ops[id - 1].ordered) ordered_in_flight = false;
        report.wall_seconds = at;
        last_progress = at;
      }
    }
    const double idle_from =
        std::max(last_progress,
                 mode == LoopMode::kOpen && next > 0
                     ? ops[next - 1].due_seconds
                     : 0.0);
    if (now_s() - idle_from > timeout_seconds) break;
  }
  return report;
}

}  // namespace e2ebench
