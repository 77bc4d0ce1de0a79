#ifndef E2EBENCH_WIRE_GEN_H_
#define E2EBENCH_WIRE_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/wire.h"

namespace e2ebench {

/// How the generator paces requests.
enum class LoopMode {
  /// Each request is due at its scheduled offset, whether or not earlier
  /// replies have arrived; latency counts from that due time, so a stall
  /// is charged to every request queued behind it.
  kOpen,
  /// Each connection sends its next request when its previous reply
  /// arrives; latency counts from the actual send.
  kClosed,
};

/// One request of a generator run. The frame's request id must be the op's
/// index + 1 (EncodeQueryFrame / EncodeMutateFrame with that id).
struct GenOp {
  std::string frame;
  /// Open loop: due offset from the run start, seconds.
  double due_seconds = 0.0;
  /// Ordered ops (mutations) go out only after the previous ordered op was
  /// answered, so the server applies them in stream order; a held op keeps
  /// its due time and is charged the wait.
  bool ordered = false;
};

/// Outcome of one op; times are seconds from the run start.
struct GenOutcome {
  bool done = false;
  double intended_seconds = 0.0;
  double sent_seconds = 0.0;
  double done_seconds = 0.0;
  ifls::WireOpcode opcode = ifls::WireOpcode::kError;
  std::string payload;

  double latency_seconds() const { return done_seconds - intended_seconds; }
};

struct GenReport {
  std::vector<GenOutcome> ops;
  /// Seconds from the run start to the last reply.
  double wall_seconds = 0.0;
};

/// Drives `ops` over `connections` loopback connections to `port` from the
/// calling thread (one poll loop; no extra threads). Open loop pins op i to
/// connection i % connections; closed loop hands the next op to whichever
/// connection is idle. Ops still unanswered `timeout_seconds` after the
/// last progress are left with done == false.
ifls::Result<GenReport> RunWireLoad(std::uint16_t port, int connections,
                                    LoopMode mode,
                                    const std::vector<GenOp>& ops,
                                    double timeout_seconds);

}  // namespace e2ebench

#endif  // E2EBENCH_WIRE_GEN_H_
