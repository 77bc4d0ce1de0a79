#ifndef IFLS_NET_CLIENT_H_
#define IFLS_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/socket.h"
#include "src/net/wire.h"

namespace ifls {

/// A subscription registered over the wire: `request_id` is what pushes are
/// tagged with, `subscription_id` what Tick/Unsubscribe address.
struct WireSubscription {
  std::uint64_t request_id = 0;
  std::uint64_t subscription_id = 0;
};

/// One server-initiated push received on this connection, tagged with the
/// Subscribe request id it belongs to.
struct ReceivedPush {
  std::uint64_t request_id = 0;
  WireSubscriptionPush push;
};

/// Client side of the IFLS wire protocol over one blocking loopback
/// connection. Two usage styles:
///
///  - Blocking RPC: Query/Mutate/Subscribe/... send one frame and wait for
///    its response (frames for other request ids — pipelined responses,
///    subscription pushes — are buffered, not lost).
///  - Pipelined: SendQuery fires N requests without waiting, WaitQuery
///    collects each response by request id in any order. The server replies
///    out of submission order when concurrent dispatchers reorder work.
///
/// Not thread-safe: one IflsClient per thread (the load generator opens
/// many). Any transport-level failure (connection closed, corrupt stream)
/// poisons the client — every later call returns the same error.
class IflsClient {
 public:
  /// Connects to 127.0.0.1:`port`.
  static Result<std::unique_ptr<IflsClient>> Connect(std::uint16_t port);

  // ---- Blocking RPC surface --------------------------------------------

  Result<WireQueryResponse> Query(IflsObjective objective,
                                  const WireQueryRequest& request);
  Result<WireMutateResponse> Mutate(const WireMutateRequest& request);
  Result<WireSubscription> Subscribe(const WireSubscribeRequest& request);
  Status Tick(const WireTickRequest& request);
  Status Unsubscribe(const WireUnsubscribeRequest& request);
  /// Prometheus text exposition of the server process.
  Result<std::string> PullMetrics();
  /// Chrome trace-event JSON of the server process.
  Result<std::string> PullTrace();
  Status Ping();

  /// Estimates the clock offset between this process and the server from
  /// `rounds` NTP-style ping exchanges (client stamps t0/t3 around each
  /// ping, the pong carries the server's recv/send stamps t1/t2; the
  /// round with the smallest network-only RTT wins). The returned value is
  /// ready for MergeChromeTraces: add it to a server trace timestamp to
  /// express that instant on this process's trace clock. Fails against a
  /// PR 8 server whose pongs carry no timestamps.
  Result<std::int64_t> EstimateClockOffset(int rounds = 5);

  // ---- Pipelining ------------------------------------------------------

  /// Sends a query frame without waiting; returns its request id.
  Result<std::uint64_t> SendQuery(IflsObjective objective,
                                  const WireQueryRequest& request);
  /// Blocks until the response for `request_id` arrives (other responses
  /// are buffered for their own WaitQuery calls). A typed server error
  /// (kError frame) surfaces as that Status.
  Result<WireQueryResponse> WaitQuery(std::uint64_t request_id);

  // ---- Subscription pushes ---------------------------------------------

  /// Pops a buffered push, if any arrived while waiting for other frames.
  std::optional<ReceivedPush> TakePush();
  /// Blocks until a push arrives (draining buffered ones first).
  Result<ReceivedPush> WaitPush();

  /// The underlying socket (the load generator polls it).
  int fd() const { return fd_.get(); }

 private:
  explicit IflsClient(OwnedFd fd) : fd_(std::move(fd)) {}

  Status SendBytes(const std::string& bytes);
  /// Blocks until the frame answering `request_id` arrives; pushes and
  /// other responses are buffered. kError frames decode into their Status.
  Result<WireFrame> WaitFrame(std::uint64_t request_id);
  /// Reads at least one frame from the socket into the buffers.
  Status ReadMore();
  Status Poison(Status status);

  OwnedFd fd_;
  ByteRing ring_;
  std::uint64_t next_request_id_ = 1;
  /// Responses received while waiting for a different request id.
  std::map<std::uint64_t, WireFrame> pending_;
  std::deque<ReceivedPush> pushes_;
  Status poisoned_;  // first transport failure; sticky
};

}  // namespace ifls

#endif  // IFLS_NET_CLIENT_H_
