#ifndef IFLS_NET_SOCKET_H_
#define IFLS_NET_SOCKET_H_

#include <cstdint>

#include "src/common/status.h"

namespace ifls {

/// Thin RAII + error-mapping layer over the POSIX socket calls the net stack
/// uses. Everything returns typed Status; errno is folded into the message.

/// Owns one file descriptor; closes it on destruction. Move-only.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();

 private:
  int fd_ = -1;
};

/// Sets O_NONBLOCK on `fd`.
Status SetNonBlocking(int fd);

/// Sets TCP_NODELAY (the protocol writes whole frames; Nagle only adds
/// latency between a pipelined client's small frames).
Status SetNoDelay(int fd);

/// Creates a non-blocking listening TCP socket bound to 127.0.0.1:`port`
/// (port 0 picks a free port). On success `*bound_port` holds the actual
/// port. SO_REUSEADDR is set so restarted servers rebind immediately.
Result<OwnedFd> CreateTcpListener(std::uint16_t port,
                                  std::uint16_t* bound_port);

/// Blocking connect to 127.0.0.1:`port`; the returned socket is left in
/// blocking mode (callers flip it with SetNonBlocking when needed).
Result<OwnedFd> ConnectTcp(std::uint16_t port);

/// Raises RLIMIT_NOFILE to at least `want` descriptors (capped at the hard
/// limit). A loopback test that opens both ends of >=1k connections in one
/// process blows through the common 1024 default.
Status EnsureFdLimit(std::uint64_t want);

}  // namespace ifls

#endif  // IFLS_NET_SOCKET_H_
