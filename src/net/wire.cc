#include "src/net/wire.h"

#include <cstring>
#include <utility>

#include "src/common/endian.h"
#include "src/common/hash.h"

namespace ifls {

const char* WireOpcodeName(WireOpcode opcode) {
  switch (opcode) {
    case WireOpcode::kQueryMinMax: return "QueryMinMax";
    case WireOpcode::kQueryMinDist: return "QueryMinDist";
    case WireOpcode::kQueryMaxSum: return "QueryMaxSum";
    case WireOpcode::kMutate: return "Mutate";
    case WireOpcode::kSubscribe: return "Subscribe";
    case WireOpcode::kSubscriptionTick: return "SubscriptionTick";
    case WireOpcode::kUnsubscribe: return "Unsubscribe";
    case WireOpcode::kMetricsPull: return "MetricsPull";
    case WireOpcode::kTracePull: return "TracePull";
    case WireOpcode::kPing: return "Ping";
    case WireOpcode::kQueryResult: return "QueryResult";
    case WireOpcode::kMutateResult: return "MutateResult";
    case WireOpcode::kSubscribeResult: return "SubscribeResult";
    case WireOpcode::kAck: return "Ack";
    case WireOpcode::kMetricsText: return "MetricsText";
    case WireOpcode::kTraceJson: return "TraceJson";
    case WireOpcode::kPong: return "Pong";
    case WireOpcode::kSubscriptionPush: return "SubscriptionPush";
    case WireOpcode::kError: return "Error";
  }
  return "Unknown";
}

WireOpcode QueryOpcodeFor(IflsObjective objective) {
  switch (objective) {
    case IflsObjective::kMinMax: return WireOpcode::kQueryMinMax;
    case IflsObjective::kMinDist: return WireOpcode::kQueryMinDist;
    case IflsObjective::kMaxSum: return WireOpcode::kQueryMaxSum;
  }
  return WireOpcode::kQueryMinMax;
}

IflsObjective ObjectiveForQueryOpcode(WireOpcode opcode) {
  switch (opcode) {
    case WireOpcode::kQueryMinDist: return IflsObjective::kMinDist;
    case WireOpcode::kQueryMaxSum: return IflsObjective::kMaxSum;
    default: return IflsObjective::kMinMax;
  }
}

namespace {

/// Tail of the kQueryResult payload: once a batch flag (u8) and batch size
/// (u32), now zero on encode and skipped on decode.
constexpr std::size_t kQueryResponseReservedBytes = 5;

// ---------------------------------------------------------------------------
// Payload cursor helpers. The writer appends through AppendLE; the reader is
// a bounds-checked cursor whose every primitive names the field it failed on
// — the typed-rejection contract tests/wire_test.cc pins down.
// ---------------------------------------------------------------------------

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  template <typename T>
  Status Read(const char* what, T* out) {
    if (data_.size() - pos_ < sizeof(T)) {
      return Truncated(what);
    }
    *out = LoadLE<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status Skip(const char* what, std::size_t n) {
    if (data_.size() - pos_ < n) {
      return Truncated(what);
    }
    pos_ += n;
    return Status::OK();
  }

  Status ReadString(const char* what, std::string* out) {
    std::uint32_t length = 0;
    IFLS_RETURN_NOT_OK(Read(what, &length));
    if (data_.size() - pos_ < length) {
      return Truncated(what);
    }
    out->assign(data_.data() + pos_, length);
    pos_ += length;
    return Status::OK();
  }

  Status ReadClients(std::vector<Client>* out) {
    std::uint32_t count = 0;
    IFLS_RETURN_NOT_OK(Read("client count", &count));
    // 28 bytes per client; reject counts the payload cannot possibly hold
    // before reserving anything.
    if (data_.size() - pos_ < static_cast<std::size_t>(count) * 28) {
      return Truncated("client array");
    }
    out->clear();
    out->reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Client c;
      std::int32_t level = 0;
      IFLS_RETURN_NOT_OK(Read("client id", &c.id));
      IFLS_RETURN_NOT_OK(Read("client x", &c.position.x));
      IFLS_RETURN_NOT_OK(Read("client y", &c.position.y));
      IFLS_RETURN_NOT_OK(Read("client level", &level));
      IFLS_RETURN_NOT_OK(Read("client partition", &c.partition));
      c.position.level = level;
      out->push_back(c);
    }
    return Status::OK();
  }

  /// A payload with bytes left over was produced by a different (newer?)
  /// encoder; reject instead of silently ignoring the tail.
  Status ExpectEnd(const char* what) const {
    if (pos_ != data_.size()) {
      return Status::InvalidArgument(std::string("wire payload for ") + what +
                                     " carries " +
                                     std::to_string(data_.size() - pos_) +
                                     " unexpected trailing bytes");
    }
    return Status::OK();
  }

 private:
  Status Truncated(const char* what) const {
    return Status::InvalidArgument(
        std::string("wire payload truncated reading ") + what);
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

void AppendString(std::string* out, std::string_view s) {
  AppendLE(out, static_cast<std::uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void AppendClients(std::string* out, const std::vector<Client>& clients) {
  AppendLE(out, static_cast<std::uint32_t>(clients.size()));
  for (const Client& c : clients) {
    AppendLE(out, c.id);
    AppendLE(out, c.position.x);
    AppendLE(out, c.position.y);
    AppendLE(out, static_cast<std::int32_t>(c.position.level));
    AppendLE(out, c.partition);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

void AppendFrame(std::string* out, WireOpcode opcode, std::uint64_t request_id,
                 std::string_view payload, const TraceContext* trace_context) {
  const bool with_context =
      trace_context != nullptr && trace_context->valid();
  std::string context_bytes;
  if (with_context) {
    context_bytes.reserve(kWireTraceContextBytes);
    AppendLE(&context_bytes, trace_context->trace_id);
    AppendLE(&context_bytes, trace_context->parent_span_id);
    AppendLE(&context_bytes,
             static_cast<std::uint8_t>(trace_context->sampled ? 1 : 0));
    AppendLE(&context_bytes, trace_context->client_send_nanos);
  }
  AppendLE(out, kWireMagic);
  AppendLE(out, kWireVersion);
  AppendLE(out, static_cast<std::uint16_t>(opcode));
  AppendLE(out, request_id);
  AppendLE(out,
           static_cast<std::uint32_t>(payload.size() + context_bytes.size()));
  AppendLE(out, with_context ? kWireFlagTraceContext : std::uint32_t{0});
  AppendLE(out, Fnv1a64Continue(Fnv1a64(payload.data(), payload.size()),
                                context_bytes.data(), context_bytes.size()));
  out->append(payload.data(), payload.size());
  out->append(context_bytes);
}

Result<std::optional<WireFrame>> TryDecodeFrame(ByteRing* ring) {
  if (ring->size() < kWireHeaderBytes) return std::optional<WireFrame>();
  const char* p = ring->data();
  const std::uint32_t magic = LoadLE<std::uint32_t>(p);
  if (magic != kWireMagic) {
    return Status::InvalidArgument(
        "wire frame has bad magic (stream desynchronized)");
  }
  const std::uint16_t version = LoadLE<std::uint16_t>(p + 4);
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire protocol version " +
                                   std::to_string(version));
  }
  const std::uint16_t opcode = LoadLE<std::uint16_t>(p + 6);
  const std::uint64_t request_id = LoadLE<std::uint64_t>(p + 8);
  const std::uint32_t payload_bytes = LoadLE<std::uint32_t>(p + 16);
  if (payload_bytes > kWireMaxPayloadBytes) {
    return Status::InvalidArgument(
        "wire frame payload of " + std::to_string(payload_bytes) +
        " bytes exceeds the " + std::to_string(kWireMaxPayloadBytes) +
        "-byte frame bound (oversized)");
  }
  const std::uint32_t flags = LoadLE<std::uint32_t>(p + 20);
  if ((flags & ~kWireFlagTraceContext) != 0) {
    return Status::InvalidArgument(
        "wire frame carries unknown extension flags 0x" +
        std::to_string(flags & ~kWireFlagTraceContext) +
        " (cannot determine frame layout)");
  }
  if ((flags & kWireFlagTraceContext) != 0 &&
      payload_bytes < kWireTraceContextBytes) {
    return Status::InvalidArgument(
        "wire frame flags a trace context but the payload region holds only " +
        std::to_string(payload_bytes) + " bytes");
  }
  const std::uint64_t checksum = LoadLE<std::uint64_t>(p + 24);
  if (ring->size() < kWireHeaderBytes + payload_bytes) {
    return std::optional<WireFrame>();  // incomplete; wait for more bytes
  }
  if (Fnv1a64(p + kWireHeaderBytes, payload_bytes) != checksum) {
    return Status::InvalidArgument("wire frame payload checksum mismatch");
  }
  WireFrame frame;
  frame.opcode = static_cast<WireOpcode>(opcode);
  frame.request_id = request_id;
  std::uint32_t message_bytes = payload_bytes;
  if ((flags & kWireFlagTraceContext) != 0) {
    // The context rides as a payload suffix so the checksum above already
    // vouched for it; peel it off before message decoders (which reject
    // trailing bytes) see the payload.
    const char* ctx =
        p + kWireHeaderBytes + payload_bytes - kWireTraceContextBytes;
    frame.trace_context.trace_id = LoadLE<std::uint64_t>(ctx);
    frame.trace_context.parent_span_id = LoadLE<std::uint64_t>(ctx + 8);
    frame.trace_context.sampled = LoadLE<std::uint8_t>(ctx + 16) != 0;
    frame.trace_context.client_send_nanos = LoadLE<std::uint64_t>(ctx + 17);
    frame.has_trace_context = true;
    message_bytes -= static_cast<std::uint32_t>(kWireTraceContextBytes);
  }
  frame.payload.assign(p + kWireHeaderBytes, message_bytes);
  ring->Consume(kWireHeaderBytes + payload_bytes);
  return std::optional<WireFrame>(std::move(frame));
}

void ByteRing::Append(const void* data, std::size_t n) {
  // Compact once the dead prefix dominates, so storage stays proportional to
  // the unconsumed bytes rather than the total stream length.
  if (head_ > 0 && head_ >= buffer_.size() - head_) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  const char* bytes = static_cast<const char*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + n);
}

void ByteRing::Consume(std::size_t n) {
  head_ += n;
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  }
}

void ByteRing::Clear() {
  buffer_.clear();
  head_ = 0;
}

// ---------------------------------------------------------------------------
// Message encoders
// ---------------------------------------------------------------------------

std::string EncodeQueryFrame(std::uint64_t request_id, IflsObjective objective,
                             const WireQueryRequest& request,
                             const TraceContext* trace_context) {
  std::string payload;
  AppendString(&payload, request.venue_id);
  AppendLE(&payload, request.deadline_seconds);
  AppendClients(&payload, request.clients);
  std::string frame;
  AppendFrame(&frame, QueryOpcodeFor(objective), request_id, payload,
              trace_context);
  return frame;
}

std::string EncodeQueryResultFrame(std::uint64_t request_id,
                                   const WireQueryResponse& response) {
  std::string payload;
  AppendLE(&payload, static_cast<std::uint8_t>(response.found ? 1 : 0));
  AppendLE(&payload, response.answer);
  AppendLE(&payload, response.objective);
  AppendLE(&payload, response.snapshot_epoch);
  AppendLE(&payload, response.overlay_size);
  payload.append(kQueryResponseReservedBytes, '\0');
  std::string frame;
  AppendFrame(&frame, WireOpcode::kQueryResult, request_id, payload);
  return frame;
}

std::string EncodeMutateFrame(std::uint64_t request_id,
                              const WireMutateRequest& request) {
  std::string payload;
  AppendString(&payload, request.venue_id);
  AppendLE(&payload, static_cast<std::uint8_t>(request.kind));
  AppendLE(&payload, request.partition);
  std::string frame;
  AppendFrame(&frame, WireOpcode::kMutate, request_id, payload);
  return frame;
}

std::string EncodeMutateResultFrame(std::uint64_t request_id,
                                    const WireMutateResponse& response) {
  std::string payload;
  AppendLE(&payload, response.applied_version);
  std::string frame;
  AppendFrame(&frame, WireOpcode::kMutateResult, request_id, payload);
  return frame;
}

std::string EncodeSubscribeFrame(std::uint64_t request_id,
                                 const WireSubscribeRequest& request) {
  std::string payload;
  AppendString(&payload, request.venue_id);
  AppendLE(&payload, request.tolerance);
  AppendClients(&payload, request.clients);
  std::string frame;
  AppendFrame(&frame, WireOpcode::kSubscribe, request_id, payload);
  return frame;
}

std::string EncodeSubscribeResultFrame(std::uint64_t request_id,
                                       const WireSubscribeResponse& response) {
  std::string payload;
  AppendLE(&payload, response.subscription_id);
  std::string frame;
  AppendFrame(&frame, WireOpcode::kSubscribeResult, request_id, payload);
  return frame;
}

std::string EncodeTickFrame(std::uint64_t request_id,
                            const WireTickRequest& request) {
  std::string payload;
  AppendString(&payload, request.venue_id);
  AppendLE(&payload, request.subscription_id);
  AppendLE(&payload, request.client);
  AppendLE(&payload, request.position.x);
  AppendLE(&payload, request.position.y);
  AppendLE(&payload, static_cast<std::int32_t>(request.position.level));
  AppendLE(&payload, request.partition);
  std::string frame;
  AppendFrame(&frame, WireOpcode::kSubscriptionTick, request_id, payload);
  return frame;
}

std::string EncodeUnsubscribeFrame(std::uint64_t request_id,
                                   const WireUnsubscribeRequest& request) {
  std::string payload;
  AppendString(&payload, request.venue_id);
  AppendLE(&payload, request.subscription_id);
  std::string frame;
  AppendFrame(&frame, WireOpcode::kUnsubscribe, request_id, payload);
  return frame;
}

std::string EncodePushFrame(std::uint64_t request_id,
                            const WireSubscriptionPush& push) {
  std::string payload;
  AppendLE(&payload, push.subscription_id);
  AppendLE(&payload, push.sequence);
  AppendLE(&payload, push.version);
  AppendLE(&payload, push.ticks_applied);
  AppendLE(&payload, push.latency_seconds);
  AppendLE(&payload, static_cast<std::uint8_t>(push.found ? 1 : 0));
  AppendLE(&payload, push.answer);
  AppendLE(&payload, push.objective);
  std::string frame;
  AppendFrame(&frame, WireOpcode::kSubscriptionPush, request_id, payload);
  return frame;
}

std::string EncodeErrorFrame(std::uint64_t request_id, const Status& status) {
  std::string payload;
  AppendLE(&payload, static_cast<std::uint16_t>(status.code()));
  AppendString(&payload, status.message());
  std::string frame;
  AppendFrame(&frame, WireOpcode::kError, request_id, payload);
  return frame;
}

std::string EncodeTextFrame(WireOpcode opcode, std::uint64_t request_id,
                            std::string_view text) {
  std::string payload;
  AppendString(&payload, text);
  std::string frame;
  AppendFrame(&frame, opcode, request_id, payload);
  return frame;
}

std::string EncodeEmptyFrame(WireOpcode opcode, std::uint64_t request_id) {
  std::string frame;
  AppendFrame(&frame, opcode, request_id, {});
  return frame;
}

std::string EncodePongFrame(std::uint64_t request_id,
                            const WirePongResponse& response) {
  std::string payload;
  AppendLE(&payload, response.server_recv_nanos);
  AppendLE(&payload, response.server_send_nanos);
  std::string frame;
  AppendFrame(&frame, WireOpcode::kPong, request_id, payload);
  return frame;
}

// ---------------------------------------------------------------------------
// Message decoders
// ---------------------------------------------------------------------------

Result<WireQueryRequest> DecodeQueryRequest(std::string_view payload) {
  PayloadReader reader(payload);
  WireQueryRequest request;
  IFLS_RETURN_NOT_OK(reader.ReadString("venue id", &request.venue_id));
  IFLS_RETURN_NOT_OK(reader.Read("deadline", &request.deadline_seconds));
  IFLS_RETURN_NOT_OK(reader.ReadClients(&request.clients));
  IFLS_RETURN_NOT_OK(reader.ExpectEnd("query request"));
  return request;
}

Result<WireQueryResponse> DecodeQueryResponse(std::string_view payload) {
  PayloadReader reader(payload);
  WireQueryResponse response;
  std::uint8_t found = 0;
  IFLS_RETURN_NOT_OK(reader.Read("found flag", &found));
  IFLS_RETURN_NOT_OK(reader.Read("answer", &response.answer));
  IFLS_RETURN_NOT_OK(reader.Read("objective", &response.objective));
  IFLS_RETURN_NOT_OK(reader.Read("snapshot epoch", &response.snapshot_epoch));
  IFLS_RETURN_NOT_OK(reader.Read("overlay size", &response.overlay_size));
  IFLS_RETURN_NOT_OK(
      reader.Skip("reserved bytes", kQueryResponseReservedBytes));
  IFLS_RETURN_NOT_OK(reader.ExpectEnd("query response"));
  response.found = found != 0;
  return response;
}

Result<WireMutateRequest> DecodeMutateRequest(std::string_view payload) {
  PayloadReader reader(payload);
  WireMutateRequest request;
  std::uint8_t kind = 0;
  IFLS_RETURN_NOT_OK(reader.ReadString("venue id", &request.venue_id));
  IFLS_RETURN_NOT_OK(reader.Read("mutation kind", &kind));
  IFLS_RETURN_NOT_OK(reader.Read("partition", &request.partition));
  IFLS_RETURN_NOT_OK(reader.ExpectEnd("mutate request"));
  if (kind > static_cast<std::uint8_t>(MutationKind::kRemoveCandidate)) {
    return Status::InvalidArgument("wire mutate request has unknown kind " +
                                   std::to_string(kind));
  }
  request.kind = static_cast<MutationKind>(kind);
  return request;
}

Result<WireMutateResponse> DecodeMutateResponse(std::string_view payload) {
  PayloadReader reader(payload);
  WireMutateResponse response;
  IFLS_RETURN_NOT_OK(reader.Read("applied version", &response.applied_version));
  IFLS_RETURN_NOT_OK(reader.ExpectEnd("mutate response"));
  return response;
}

Result<WireSubscribeRequest> DecodeSubscribeRequest(std::string_view payload) {
  PayloadReader reader(payload);
  WireSubscribeRequest request;
  IFLS_RETURN_NOT_OK(reader.ReadString("venue id", &request.venue_id));
  IFLS_RETURN_NOT_OK(reader.Read("tolerance", &request.tolerance));
  IFLS_RETURN_NOT_OK(reader.ReadClients(&request.clients));
  IFLS_RETURN_NOT_OK(reader.ExpectEnd("subscribe request"));
  return request;
}

Result<WireSubscribeResponse> DecodeSubscribeResponse(
    std::string_view payload) {
  PayloadReader reader(payload);
  WireSubscribeResponse response;
  IFLS_RETURN_NOT_OK(
      reader.Read("subscription id", &response.subscription_id));
  IFLS_RETURN_NOT_OK(reader.ExpectEnd("subscribe response"));
  return response;
}

Result<WireTickRequest> DecodeTickRequest(std::string_view payload) {
  PayloadReader reader(payload);
  WireTickRequest request;
  std::int32_t level = 0;
  IFLS_RETURN_NOT_OK(reader.ReadString("venue id", &request.venue_id));
  IFLS_RETURN_NOT_OK(reader.Read("subscription id", &request.subscription_id));
  IFLS_RETURN_NOT_OK(reader.Read("client id", &request.client));
  IFLS_RETURN_NOT_OK(reader.Read("position x", &request.position.x));
  IFLS_RETURN_NOT_OK(reader.Read("position y", &request.position.y));
  IFLS_RETURN_NOT_OK(reader.Read("position level", &level));
  IFLS_RETURN_NOT_OK(reader.Read("partition", &request.partition));
  IFLS_RETURN_NOT_OK(reader.ExpectEnd("tick request"));
  request.position.level = level;
  return request;
}

Result<WireUnsubscribeRequest> DecodeUnsubscribeRequest(
    std::string_view payload) {
  PayloadReader reader(payload);
  WireUnsubscribeRequest request;
  IFLS_RETURN_NOT_OK(reader.ReadString("venue id", &request.venue_id));
  IFLS_RETURN_NOT_OK(reader.Read("subscription id", &request.subscription_id));
  IFLS_RETURN_NOT_OK(reader.ExpectEnd("unsubscribe request"));
  return request;
}

Result<WireSubscriptionPush> DecodePush(std::string_view payload) {
  PayloadReader reader(payload);
  WireSubscriptionPush push;
  std::uint8_t found = 0;
  IFLS_RETURN_NOT_OK(reader.Read("subscription id", &push.subscription_id));
  IFLS_RETURN_NOT_OK(reader.Read("sequence", &push.sequence));
  IFLS_RETURN_NOT_OK(reader.Read("version", &push.version));
  IFLS_RETURN_NOT_OK(reader.Read("ticks applied", &push.ticks_applied));
  IFLS_RETURN_NOT_OK(reader.Read("latency", &push.latency_seconds));
  IFLS_RETURN_NOT_OK(reader.Read("found flag", &found));
  IFLS_RETURN_NOT_OK(reader.Read("answer", &push.answer));
  IFLS_RETURN_NOT_OK(reader.Read("objective", &push.objective));
  IFLS_RETURN_NOT_OK(reader.ExpectEnd("subscription push"));
  push.found = found != 0;
  return push;
}

Result<WireTextResponse> DecodeTextResponse(std::string_view payload) {
  PayloadReader reader(payload);
  WireTextResponse response;
  IFLS_RETURN_NOT_OK(reader.ReadString("text", &response.text));
  IFLS_RETURN_NOT_OK(reader.ExpectEnd("text response"));
  return response;
}

Result<WirePongResponse> DecodePong(std::string_view payload) {
  WirePongResponse response;
  if (payload.empty()) return response;  // PR 8 servers pong with no payload
  PayloadReader reader(payload);
  IFLS_RETURN_NOT_OK(
      reader.Read("server recv nanos", &response.server_recv_nanos));
  IFLS_RETURN_NOT_OK(
      reader.Read("server send nanos", &response.server_send_nanos));
  IFLS_RETURN_NOT_OK(reader.ExpectEnd("pong response"));
  return response;
}

Status DecodeErrorPayload(std::string_view payload) {
  PayloadReader reader(payload);
  std::uint16_t code = 0;
  std::string message;
  if (Status s = reader.Read("status code", &code); !s.ok()) {
    return Status::Internal("malformed wire error frame: " + s.message());
  }
  if (Status s = reader.ReadString("status message", &message); !s.ok()) {
    return Status::Internal("malformed wire error frame: " + s.message());
  }
  if (code == 0 ||
      code > static_cast<std::uint16_t>(StatusCode::kDeadlineExceeded)) {
    return Status::Internal("wire error frame carries unknown status code " +
                            std::to_string(code));
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace ifls
