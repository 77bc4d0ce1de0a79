#ifndef IFLS_NET_WIRE_H_
#define IFLS_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/core/solve_dispatch.h"
#include "src/indoor/types.h"
#include "src/service/delta_overlay.h"

namespace ifls {

// The IFLS wire protocol (DESIGN.md §13): a compact little-endian binary
// framing shared by IflsServer and IflsClient. Every message is one frame —
// a fixed 32-byte header followed by an opcode-specific payload:
//
//   offset  size  field
//        0     4  magic            "IFLW" (0x574C4649 LE)
//        4     2  version          kWireVersion (2)
//        6     2  opcode           WireOpcode
//        8     8  request_id       client-chosen; responses echo it, and
//                                  subscription pushes carry the id of the
//                                  Subscribe request that created them
//       16     4  payload_bytes    length of the payload that follows
//       20     4  flags            extension bits (0 before PR 10)
//       24     8  payload_checksum Checksum64 of the payload bytes
//
// Payload integers/doubles are little-endian (src/common/endian.h); strings
// encode as u32 length + raw bytes; the checksum is the v3 snapshot's
// four-lane Checksum64 (src/common/hash.h) over the whole payload region,
// trace-context suffix included. Version 2 replaced version 1's FNV-1a-64
// checksum; a version-1 frame fails the version check. Responses are
// matched by request id, not order: a pipelined connection may receive
// replies out of submission order (concurrent dispatcher threads reorder
// freely), and subscription pushes interleave with responses on the same
// stream.
//
// Frame extensions (DESIGN.md §15): the former reserved word at offset 20 is
// a flags field. kWireFlagTraceContext marks a fixed-size trace-context
// block (trace id, parent span id, sampling verdict, client send timestamp)
// appended as a *suffix of the payload region* — payload_bytes and the
// checksum cover it, so pre-extension decoders that treated the word as
// reserved-zero never see a flagged frame, and flag-free frames carry no
// suffix at all. TryDecodeFrame strips the suffix
// into WireFrame::trace_context before any message decoder (all of which
// reject trailing bytes) sees the payload. Unknown flag bits are a corrupt
// envelope: the decoder cannot know how many trailing bytes they claim.
//
// Error handling contract: a syntactically valid frame with a bad payload is
// answered with a kError frame echoing its request id and the stream stays
// usable; a corrupt frame *envelope* (bad magic / version / oversized length
// / checksum mismatch) means the byte stream itself is unsynchronized — the
// decoder returns a non-ok Status and the server closes the connection after
// a best-effort kError with request id 0.

inline constexpr std::uint32_t kWireMagic = 0x574C4649u;  // "IFLW"
inline constexpr std::uint16_t kWireVersion = 2;
/// Frames larger than this are rejected as corrupt before any allocation —
/// the bound keeps a malicious or desynchronized length field from forcing
/// a giant buffer. Generous enough for ~400k-client query payloads.
inline constexpr std::uint32_t kWireMaxPayloadBytes = 16u << 20;
inline constexpr std::size_t kWireHeaderBytes = 32;

/// Header flag bits (offset 20). Bits without a constant here are unknown
/// extensions and make the envelope undecodable.
inline constexpr std::uint32_t kWireFlagTraceContext = 0x1u;
/// Serialized TraceContext suffix: trace_id u64 + parent_span_id u64 +
/// sampled u8 + client_send_nanos u64.
inline constexpr std::size_t kWireTraceContextBytes = 25;

/// Frame opcodes. Requests are < 128, responses >= 128; kSubscriptionPush is
/// the one server-initiated opcode, kError the one failure envelope.
enum class WireOpcode : std::uint16_t {
  // Requests.
  kQueryMinMax = 1,
  kQueryMinDist = 2,
  kQueryMaxSum = 3,
  kMutate = 4,
  kSubscribe = 5,
  kSubscriptionTick = 6,
  kUnsubscribe = 7,
  kMetricsPull = 8,
  kTracePull = 9,
  kPing = 10,
  // Responses.
  kQueryResult = 128,
  kMutateResult = 129,
  kSubscribeResult = 130,
  kAck = 131,          // SubscriptionTick / Unsubscribe success
  kMetricsText = 132,
  kTraceJson = 133,
  kPong = 134,
  kSubscriptionPush = 160,
  kError = 192,
};

/// Stable name for logs/tests ("QueryMinMax", "Error", ...).
const char* WireOpcodeName(WireOpcode opcode);

/// True for the three query opcodes.
inline bool IsQueryOpcode(WireOpcode op) {
  return op == WireOpcode::kQueryMinMax || op == WireOpcode::kQueryMinDist ||
         op == WireOpcode::kQueryMaxSum;
}

/// Query opcode <-> objective mapping.
WireOpcode QueryOpcodeFor(IflsObjective objective);
IflsObjective ObjectiveForQueryOpcode(WireOpcode opcode);

/// One decoded frame: the envelope fields plus the raw payload bytes. When
/// the sender attached a trace context (kWireFlagTraceContext), the decoder
/// has already stripped it from `payload` into `trace_context`.
struct WireFrame {
  WireOpcode opcode = WireOpcode::kPing;
  std::uint64_t request_id = 0;
  std::string payload;
  bool has_trace_context = false;
  TraceContext trace_context;
};

// ---------------------------------------------------------------------------
// Message payloads
// ---------------------------------------------------------------------------

/// Query request (kQueryMinMax/kQueryMinDist/kQueryMaxSum; the objective is
/// the opcode). `venue_id` routes through VenueRouter on fleet servers and
/// must be empty on single-venue servers. `deadline_seconds` follows
/// ServiceRequest (0 = the service default, < 0 = none) and runs from the
/// server's decode of the frame.
struct WireQueryRequest {
  std::string venue_id;
  double deadline_seconds = 0.0;
  std::vector<Client> clients;
};

/// kQueryResult. `answer`/`objective` are the solver's exact bits, so a
/// client can differentially check a networked reply against an in-process
/// solve with bit equality. The payload ends in 5 reserved bytes, written
/// as zero and ignored on decode (older servers filled them with a batch
/// flag and size), so the frame layout and version are unchanged.
struct WireQueryResponse {
  bool found = false;
  PartitionId answer = kInvalidPartition;
  double objective = 0.0;
  std::uint64_t snapshot_epoch = 0;
  std::uint64_t overlay_size = 0;
};

/// kMutate request.
struct WireMutateRequest {
  std::string venue_id;
  MutationKind kind = MutationKind::kAddFacility;
  PartitionId partition = kInvalidPartition;
};

/// kMutateResult: the service mutation version the change was applied at.
struct WireMutateResponse {
  std::uint64_t applied_version = 0;
};

/// kSubscribe request: register a standing MinMax query. The initial answer
/// (sequence 0) arrives as a kSubscriptionPush frame carrying this request's
/// id; because it is delivered synchronously during registration it may
/// precede the kSubscribeResult on the stream — match pushes by request id,
/// not arrival order.
struct WireSubscribeRequest {
  std::string venue_id;
  double tolerance = 0.0;
  std::vector<Client> clients;
};

struct WireSubscribeResponse {
  std::uint64_t subscription_id = 0;
};

/// kSubscriptionTick request: move one client of a standing query.
struct WireTickRequest {
  std::string venue_id;
  std::uint64_t subscription_id = 0;
  ClientId client = kInvalidClient;
  Point position;
  PartitionId partition = kInvalidPartition;
};

/// kUnsubscribe request.
struct WireUnsubscribeRequest {
  std::string venue_id;
  std::uint64_t subscription_id = 0;
};

/// kSubscriptionPush (server -> client): one pushed re-solve of a standing
/// query, streamed over the connection that subscribed.
struct WireSubscriptionPush {
  std::uint64_t subscription_id = 0;
  std::uint64_t sequence = 0;
  std::uint64_t version = 0;
  std::uint64_t ticks_applied = 0;
  double latency_seconds = 0.0;
  bool found = false;
  PartitionId answer = kInvalidPartition;
  double objective = 0.0;
};

/// kError: a typed Status travelling the wire. kUnavailable is the
/// backpressure signal (dispatch queue full at the server) and
/// kDeadlineExceeded an expired wire deadline — the connection stays open
/// either way and the caller may retry.
struct WireError {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

/// kMetricsText / kTraceJson responses: one string blob (the Prometheus
/// exposition / the Chrome trace-event JSON).
struct WireTextResponse {
  std::string text;
};

/// kPong response. PR 8 pongs were empty; PR 10 stamps the server's trace
/// clock at frame receipt and at reply encode, giving the client the t1/t2
/// legs of an NTP-style clock-offset estimate (DESIGN.md §15). An empty
/// pong payload still decodes (both fields zero) for mixed-version runs.
struct WirePongResponse {
  std::uint64_t server_recv_nanos = 0;
  std::uint64_t server_send_nanos = 0;
};

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends one complete frame (header + payload) to `out`. A valid
/// `trace_context` (non-null, trace_id != 0) rides along as the flagged
/// payload suffix; null or invalid contexts produce a PR 8-identical frame.
void AppendFrame(std::string* out, WireOpcode opcode, std::uint64_t request_id,
                 std::string_view payload,
                 const TraceContext* trace_context = nullptr);

/// Convenience frame builders: encode the message and wrap it in a frame.
std::string EncodeQueryFrame(std::uint64_t request_id, IflsObjective objective,
                             const WireQueryRequest& request,
                             const TraceContext* trace_context = nullptr);
std::string EncodeQueryResultFrame(std::uint64_t request_id,
                                   const WireQueryResponse& response);
std::string EncodeMutateFrame(std::uint64_t request_id,
                              const WireMutateRequest& request);
std::string EncodeMutateResultFrame(std::uint64_t request_id,
                                    const WireMutateResponse& response);
std::string EncodeSubscribeFrame(std::uint64_t request_id,
                                 const WireSubscribeRequest& request);
std::string EncodeSubscribeResultFrame(std::uint64_t request_id,
                                       const WireSubscribeResponse& response);
std::string EncodeTickFrame(std::uint64_t request_id,
                            const WireTickRequest& request);
std::string EncodeUnsubscribeFrame(std::uint64_t request_id,
                                   const WireUnsubscribeRequest& request);
std::string EncodePushFrame(std::uint64_t request_id,
                            const WireSubscriptionPush& push);
std::string EncodeErrorFrame(std::uint64_t request_id, const Status& status);
std::string EncodeTextFrame(WireOpcode opcode, std::uint64_t request_id,
                            std::string_view text);
std::string EncodeEmptyFrame(WireOpcode opcode, std::uint64_t request_id);
std::string EncodePongFrame(std::uint64_t request_id,
                            const WirePongResponse& response);

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Per-connection receive buffer backing frame reassembly: a flat byte ring
/// with amortized O(1) append/consume and a contiguous read view (the tail
/// compacts to the front once the head outgrows half the storage, so decode
/// always sees one linear span regardless of how the socket fragmented the
/// stream).
class ByteRing {
 public:
  void Append(const void* data, std::size_t n);
  const char* data() const { return buffer_.data() + head_; }
  std::size_t size() const { return buffer_.size() - head_; }
  bool empty() const { return size() == 0; }
  /// Drops `n` bytes from the front. n must be <= size().
  void Consume(std::size_t n);
  void Clear();

 private:
  std::vector<char> buffer_;
  std::size_t head_ = 0;
};

/// Attempts to decode one frame from the front of `ring`.
///   - complete valid frame: consumes it and returns the frame
///   - incomplete prefix: returns nullopt, ring untouched (feed more bytes)
///   - corrupt envelope (bad magic/version, oversized length, checksum
///     mismatch): returns InvalidArgument; the stream is unsynchronized and
///     the connection must be torn down.
Result<std::optional<WireFrame>> TryDecodeFrame(ByteRing* ring);

/// Payload decoders. Every truncation/overrun returns a typed
/// InvalidArgument naming the field that could not be read.
Result<WireQueryRequest> DecodeQueryRequest(std::string_view payload);
Result<WireQueryResponse> DecodeQueryResponse(std::string_view payload);
Result<WireMutateRequest> DecodeMutateRequest(std::string_view payload);
Result<WireMutateResponse> DecodeMutateResponse(std::string_view payload);
Result<WireSubscribeRequest> DecodeSubscribeRequest(std::string_view payload);
Result<WireSubscribeResponse> DecodeSubscribeResponse(
    std::string_view payload);
Result<WireTickRequest> DecodeTickRequest(std::string_view payload);
Result<WireUnsubscribeRequest> DecodeUnsubscribeRequest(
    std::string_view payload);
Result<WireSubscriptionPush> DecodePush(std::string_view payload);
Result<WireTextResponse> DecodeTextResponse(std::string_view payload);
/// Empty payloads (PR 8 pongs) decode as {0, 0}.
Result<WirePongResponse> DecodePong(std::string_view payload);
/// Decodes a kError payload into the Status it carries (non-ok by
/// construction; a malformed error payload decodes as kInternal).
Status DecodeErrorPayload(std::string_view payload);

}  // namespace ifls

#endif  // IFLS_NET_WIRE_H_
