// Frame codec coverage (satellite of the network PR): round-trips for every
// opcode, envelope corruption (magic/version/oversized/checksum) rejected
// with typed Status, payload truncation naming the missing field, and
// fuzz-style partial-read reassembly — frames split at every byte boundary
// must decode identically. The trace-context frame extension (DESIGN.md §15)
// is covered both ways: flagged frames round-trip the context and strip the
// suffix before payload decoding, flag-free frames stay byte-identical to
// the pre-extension encoding, and unknown flag bits or an impossible suffix
// length are corrupt envelopes.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/endian.h"
#include "src/common/hash.h"
#include "src/net/wire.h"

namespace ifls {
namespace {

std::vector<Client> TwoClients() {
  Client a;
  a.id = 3;
  a.partition = 1;
  a.position = Point(1.25, -2.5, 0);
  Client b;
  b.id = 9;
  b.partition = 4;
  b.position = Point(17.75, 3.0, 1);
  return {a, b};
}

/// Decodes exactly one frame from raw bytes, requiring completeness.
WireFrame DecodeOne(const std::string& bytes) {
  ByteRing ring;
  ring.Append(bytes.data(), bytes.size());
  Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&ring);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().has_value());
  EXPECT_TRUE(ring.empty());
  return std::move(*decoded.value());
}

// ------------------------------------------------------------- round trips

TEST(WireRoundTripTest, QueryRequestEveryObjective) {
  for (IflsObjective objective :
       {IflsObjective::kMinMax, IflsObjective::kMinDist,
        IflsObjective::kMaxSum}) {
    WireQueryRequest request;
    request.venue_id = "venue7";
    request.deadline_seconds = 0.125;
    request.clients = TwoClients();
    const std::string bytes = EncodeQueryFrame(77, objective, request);
    WireFrame frame = DecodeOne(bytes);
    EXPECT_EQ(frame.opcode, QueryOpcodeFor(objective));
    EXPECT_EQ(ObjectiveForQueryOpcode(frame.opcode), objective);
    EXPECT_EQ(frame.request_id, 77u);
    auto decoded = DecodeQueryRequest(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().venue_id, "venue7");
    EXPECT_EQ(decoded.value().deadline_seconds, 0.125);
    ASSERT_EQ(decoded.value().clients.size(), 2u);
    EXPECT_EQ(decoded.value().clients[0].id, 3);
    EXPECT_EQ(decoded.value().clients[1].partition, 4);
    EXPECT_EQ(decoded.value().clients[1].position.x, 17.75);
    EXPECT_EQ(decoded.value().clients[1].position.level, 1);
  }
}

TEST(WireRoundTripTest, QueryResponse) {
  WireQueryResponse response;
  response.found = true;
  response.answer = 42;
  response.objective = 13.625;
  response.snapshot_epoch = 5;
  response.overlay_size = 2;
  WireFrame frame =
      DecodeOne(EncodeQueryResultFrame(0xFFFF'FFFF'FFFF'FFFEull, response));
  EXPECT_EQ(frame.opcode, WireOpcode::kQueryResult);
  EXPECT_EQ(frame.request_id, 0xFFFF'FFFF'FFFF'FFFEull);
  // found u8, answer i32, objective f64, epoch u64, overlay u64, then the
  // 5 reserved bytes, written as zero.
  ASSERT_EQ(frame.payload.size(), 1u + 4 + 8 + 8 + 8 + 5);
  EXPECT_EQ(frame.payload.substr(29), std::string(5, '\0'));
  auto decoded = DecodeQueryResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().found);
  EXPECT_EQ(decoded.value().answer, 42);
  EXPECT_EQ(decoded.value().objective, 13.625);
  EXPECT_EQ(decoded.value().snapshot_epoch, 5u);
  EXPECT_EQ(decoded.value().overlay_size, 2u);
}

TEST(WireRoundTripTest, QueryResponseFromOlderServerDecodes) {
  // Older servers filled the reserved tail with a batch flag (u8) and batch
  // size (u32); the decoder reads past both.
  std::string payload;
  AppendLE<std::uint8_t>(&payload, 1);        // found
  AppendLE<std::int32_t>(&payload, 42);       // answer
  AppendLE<double>(&payload, 13.625);         // objective
  AppendLE<std::uint64_t>(&payload, 5);       // snapshot epoch
  AppendLE<std::uint64_t>(&payload, 2);       // overlay size
  AppendLE<std::uint8_t>(&payload, 1);        // batched
  AppendLE<std::uint32_t>(&payload, 17);      // batch size
  std::string bytes;
  AppendFrame(&bytes, WireOpcode::kQueryResult, 3, payload);
  WireFrame frame = DecodeOne(bytes);
  auto decoded = DecodeQueryResponse(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().found);
  EXPECT_EQ(decoded.value().answer, 42);
  EXPECT_EQ(decoded.value().objective, 13.625);
  EXPECT_EQ(decoded.value().snapshot_epoch, 5u);
  EXPECT_EQ(decoded.value().overlay_size, 2u);
  // Cut inside the reserved tail: still a typed truncation.
  EXPECT_EQ(DecodeQueryResponse(std::string_view(payload).substr(0, 31))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WireRoundTripTest, MutateRequestAndResponse) {
  for (MutationKind kind :
       {MutationKind::kAddFacility, MutationKind::kRemoveFacility,
        MutationKind::kAddCandidate, MutationKind::kRemoveCandidate}) {
    WireMutateRequest request;
    request.venue_id = "v";
    request.kind = kind;
    request.partition = 6;
    WireFrame frame = DecodeOne(EncodeMutateFrame(8, request));
    EXPECT_EQ(frame.opcode, WireOpcode::kMutate);
    auto decoded = DecodeMutateRequest(frame.payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().kind, kind);
    EXPECT_EQ(decoded.value().partition, 6);
  }
  WireMutateResponse response;
  response.applied_version = 123;
  WireFrame frame = DecodeOne(EncodeMutateResultFrame(9, response));
  EXPECT_EQ(frame.opcode, WireOpcode::kMutateResult);
  auto decoded = DecodeMutateResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().applied_version, 123u);
}

TEST(WireRoundTripTest, SubscriptionLifecycleFrames) {
  WireSubscribeRequest sub;
  sub.venue_id = "venue0";
  sub.tolerance = 0.5;
  sub.clients = TwoClients();
  WireFrame frame = DecodeOne(EncodeSubscribeFrame(11, sub));
  EXPECT_EQ(frame.opcode, WireOpcode::kSubscribe);
  auto sub_decoded = DecodeSubscribeRequest(frame.payload);
  ASSERT_TRUE(sub_decoded.ok());
  EXPECT_EQ(sub_decoded.value().tolerance, 0.5);
  ASSERT_EQ(sub_decoded.value().clients.size(), 2u);

  WireSubscribeResponse sub_result;
  sub_result.subscription_id = 31;
  frame = DecodeOne(EncodeSubscribeResultFrame(11, sub_result));
  EXPECT_EQ(frame.opcode, WireOpcode::kSubscribeResult);
  auto result_decoded = DecodeSubscribeResponse(frame.payload);
  ASSERT_TRUE(result_decoded.ok());
  EXPECT_EQ(result_decoded.value().subscription_id, 31u);

  WireTickRequest tick;
  tick.venue_id = "venue0";
  tick.subscription_id = 31;
  tick.client = 1;
  tick.position = Point(2.0, 3.0, 1);
  tick.partition = 4;
  frame = DecodeOne(EncodeTickFrame(12, tick));
  EXPECT_EQ(frame.opcode, WireOpcode::kSubscriptionTick);
  auto tick_decoded = DecodeTickRequest(frame.payload);
  ASSERT_TRUE(tick_decoded.ok());
  EXPECT_EQ(tick_decoded.value().subscription_id, 31u);
  EXPECT_EQ(tick_decoded.value().client, 1);
  EXPECT_EQ(tick_decoded.value().position.y, 3.0);
  EXPECT_EQ(tick_decoded.value().partition, 4);

  WireUnsubscribeRequest unsub;
  unsub.venue_id = "venue0";
  unsub.subscription_id = 31;
  frame = DecodeOne(EncodeUnsubscribeFrame(13, unsub));
  EXPECT_EQ(frame.opcode, WireOpcode::kUnsubscribe);
  auto unsub_decoded = DecodeUnsubscribeRequest(frame.payload);
  ASSERT_TRUE(unsub_decoded.ok());
  EXPECT_EQ(unsub_decoded.value().subscription_id, 31u);

  WireSubscriptionPush push;
  push.subscription_id = 31;
  push.sequence = 7;
  push.version = 3;
  push.ticks_applied = 2;
  push.latency_seconds = 0.0625;
  push.found = true;
  push.answer = 5;
  push.objective = 99.5;
  frame = DecodeOne(EncodePushFrame(11, push));
  EXPECT_EQ(frame.opcode, WireOpcode::kSubscriptionPush);
  auto push_decoded = DecodePush(frame.payload);
  ASSERT_TRUE(push_decoded.ok());
  EXPECT_EQ(push_decoded.value().sequence, 7u);
  EXPECT_EQ(push_decoded.value().version, 3u);
  EXPECT_EQ(push_decoded.value().ticks_applied, 2u);
  EXPECT_EQ(push_decoded.value().latency_seconds, 0.0625);
  EXPECT_TRUE(push_decoded.value().found);
  EXPECT_EQ(push_decoded.value().answer, 5);
  EXPECT_EQ(push_decoded.value().objective, 99.5);
}

TEST(WireRoundTripTest, ErrorCarriesTypedStatus) {
  const Status status = Status::Unavailable("admission queue full (4 queries)");
  WireFrame frame = DecodeOne(EncodeErrorFrame(21, status));
  EXPECT_EQ(frame.opcode, WireOpcode::kError);
  const Status decoded = DecodeErrorPayload(frame.payload);
  EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.message(), "admission queue full (4 queries)");
}

TEST(WireRoundTripTest, TextAndEmptyFrames) {
  WireFrame frame = DecodeOne(
      EncodeTextFrame(WireOpcode::kMetricsText, 5, "# TYPE foo counter\n"));
  EXPECT_EQ(frame.opcode, WireOpcode::kMetricsText);
  auto text = DecodeTextResponse(frame.payload);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value().text, "# TYPE foo counter\n");

  for (WireOpcode opcode :
       {WireOpcode::kPing, WireOpcode::kPong, WireOpcode::kAck,
        WireOpcode::kMetricsPull, WireOpcode::kTracePull}) {
    frame = DecodeOne(EncodeEmptyFrame(opcode, 6));
    EXPECT_EQ(frame.opcode, opcode);
    EXPECT_TRUE(frame.payload.empty());
  }
}

// ------------------------------------------------- trace-context extension

TEST(WireTraceContextTest, QueryFrameRoundTripsContext) {
  for (bool sampled : {true, false}) {
    WireQueryRequest request;
    request.venue_id = "venue7";
    request.clients = TwoClients();
    TraceContext context;
    context.trace_id = 0x1122'3344'5566'7788ull;
    context.parent_span_id = 42;
    context.sampled = sampled;
    context.client_send_nanos = 987'654'321;
    WireFrame frame = DecodeOne(
        EncodeQueryFrame(5, IflsObjective::kMinMax, request, &context));
    ASSERT_TRUE(frame.has_trace_context);
    EXPECT_EQ(frame.trace_context.trace_id, context.trace_id);
    EXPECT_EQ(frame.trace_context.parent_span_id, 42u);
    EXPECT_EQ(frame.trace_context.sampled, sampled);
    EXPECT_EQ(frame.trace_context.client_send_nanos, 987'654'321u);
    // The decoder stripped the suffix: the payload decodes as the plain
    // message (all payload decoders reject trailing bytes, so this also
    // proves no suffix leaked through).
    auto decoded = DecodeQueryRequest(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().venue_id, "venue7");
    ASSERT_EQ(decoded.value().clients.size(), 2u);
    EXPECT_EQ(decoded.value().clients[1].partition, 4);
  }
}

TEST(WireTraceContextTest, ContextFreeFramesStayByteIdentical) {
  // No context and an invalid context (trace_id 0) must both produce the
  // exact pre-extension frame bytes: zero flags word, no payload suffix.
  WireQueryRequest request;
  request.venue_id = "venue7";
  request.clients = TwoClients();
  const std::string plain =
      EncodeQueryFrame(5, IflsObjective::kMinMax, request);
  TraceContext invalid;  // trace_id == 0 -> valid() is false
  const std::string with_invalid =
      EncodeQueryFrame(5, IflsObjective::kMinMax, request, &invalid);
  EXPECT_EQ(plain, with_invalid);
  EXPECT_EQ(LoadLE<std::uint32_t>(plain.data() + 20), 0u);
  WireFrame frame = DecodeOne(plain);
  EXPECT_FALSE(frame.has_trace_context);
  EXPECT_EQ(frame.trace_context.trace_id, 0u);
}

TEST(WireTraceContextTest, UnknownFlagBitsAreACorruptEnvelope) {
  std::string bytes = EncodeEmptyFrame(WireOpcode::kPing, 1);
  StoreLE<std::uint32_t>(bytes.data() + 20, kWireFlagTraceContext << 1);
  ByteRing ring;
  ring.Append(bytes.data(), bytes.size());
  Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&ring);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unknown extension flags"),
            std::string::npos);
}

TEST(WireTraceContextTest, FlaggedFrameTooShortForSuffixRejected) {
  // A ping has an empty payload region; flagging a trace context on it
  // claims 25 suffix bytes that cannot exist.
  std::string bytes = EncodeEmptyFrame(WireOpcode::kPing, 1);
  StoreLE<std::uint32_t>(bytes.data() + 20, kWireFlagTraceContext);
  ByteRing ring;
  ring.Append(bytes.data(), bytes.size());
  Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&ring);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTraceContextTest, FlaggedFrameReassemblesAtEveryBoundary) {
  TraceContext context;
  context.trace_id = 7;
  context.sampled = true;
  WireQueryRequest request;
  request.venue_id = "split";
  request.clients = TwoClients();
  const std::string stream =
      EncodeQueryFrame(1, IflsObjective::kMaxSum, request, &context);
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    ByteRing ring;
    std::optional<WireFrame> frame;
    auto feed = [&](const char* data, std::size_t n) {
      ring.Append(data, n);
      Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&ring);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      if (decoded.value().has_value()) frame = std::move(*decoded.value());
    };
    feed(stream.data(), split);
    feed(stream.data() + split, stream.size() - split);
    ASSERT_TRUE(frame.has_value()) << "split at " << split;
    EXPECT_TRUE(frame->has_trace_context);
    EXPECT_EQ(frame->trace_context.trace_id, 7u);
    EXPECT_TRUE(DecodeQueryRequest(frame->payload).ok());
  }
}

TEST(WireTraceContextTest, PongCarriesServerTimestamps) {
  WirePongResponse pong;
  pong.server_recv_nanos = 1'000'000'111;
  pong.server_send_nanos = 1'000'000'222;
  WireFrame frame = DecodeOne(EncodePongFrame(9, pong));
  EXPECT_EQ(frame.opcode, WireOpcode::kPong);
  auto decoded = DecodePong(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().server_recv_nanos, 1'000'000'111u);
  EXPECT_EQ(decoded.value().server_send_nanos, 1'000'000'222u);

  // A PR 8 pong has no payload: decodes as {0, 0} rather than failing, so
  // mixed-version ping keeps working (offset estimation then rejects it
  // explicitly at the client layer).
  auto legacy = DecodePong(std::string_view());
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy.value().server_recv_nanos, 0u);
  EXPECT_EQ(legacy.value().server_send_nanos, 0u);

  // Any other truncation is malformed.
  auto truncated = DecodePong(std::string_view(frame.payload).substr(0, 7));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------- envelope errors

TEST(WireEnvelopeTest, BadMagicRejected) {
  std::string bytes = EncodeEmptyFrame(WireOpcode::kPing, 1);
  bytes[0] ^= 0x01;
  ByteRing ring;
  ring.Append(bytes.data(), bytes.size());
  Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&ring);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireEnvelopeTest, BadVersionRejected) {
  // A future version, and version 1, whose frames carried an FNV-1a-64
  // checksum the current decoder cannot verify.
  static_assert(kWireVersion == 2, "update the previous-version case");
  for (const std::uint16_t version : {std::uint16_t{kWireVersion + 1},
                                      std::uint16_t{1}}) {
    SCOPED_TRACE(version);
    std::string bytes = EncodeEmptyFrame(WireOpcode::kPing, 1);
    StoreLE<std::uint16_t>(bytes.data() + 4, version);
    ByteRing ring;
    ring.Append(bytes.data(), bytes.size());
    Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&ring);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find(
                  "unsupported wire protocol version " +
                  std::to_string(version)),
              std::string::npos);
  }
}

TEST(WireEnvelopeTest, OversizedPayloadRejectedBeforeBuffering) {
  std::string bytes = EncodeEmptyFrame(WireOpcode::kPing, 1);
  StoreLE<std::uint32_t>(bytes.data() + 16, kWireMaxPayloadBytes + 1);
  ByteRing ring;
  ring.Append(bytes.data(), bytes.size());
  Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&ring);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireEnvelopeTest, ChecksumMismatchRejected) {
  WireQueryResponse response;
  response.answer = 1;
  std::string bytes = EncodeQueryResultFrame(2, response);
  bytes[kWireHeaderBytes] ^= 0x40;  // flip one payload bit
  ByteRing ring;
  ring.Append(bytes.data(), bytes.size());
  Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&ring);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos);
}

// --------------------------------------------------------- payload errors

TEST(WirePayloadTest, TruncationIsTypedAndNamed) {
  WireQueryRequest request;
  request.venue_id = "venue";
  request.clients = TwoClients();
  const std::string bytes =
      EncodeQueryFrame(1, IflsObjective::kMinMax, request);
  WireFrame frame = DecodeOne(bytes);
  // Every proper prefix of the payload must fail with InvalidArgument —
  // never crash, never succeed.
  for (std::size_t cut = 0; cut < frame.payload.size(); ++cut) {
    auto decoded =
        DecodeQueryRequest(std::string_view(frame.payload).substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "prefix " << cut << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  // Trailing bytes are rejected too (a frame is exactly one message).
  std::string padded = frame.payload + std::string(1, '\0');
  EXPECT_FALSE(DecodeQueryRequest(padded).ok());
}

TEST(WirePayloadTest, MutateKindValidated) {
  WireMutateRequest request;
  request.kind = MutationKind::kRemoveCandidate;
  WireFrame frame = DecodeOne(EncodeMutateFrame(1, request));
  std::string payload = frame.payload;
  // kind is encoded after the venue string (u32 len) as a u8.
  payload[4] = 17;  // no such MutationKind
  auto decoded = DecodeMutateRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WirePayloadTest, ErrorPayloadNeverDecodesAsOk) {
  // Code 0 (kOk) on the wire is a protocol violation; the decoder must
  // return a non-ok Status regardless.
  std::string payload;
  AppendLE<std::uint16_t>(&payload, 0);  // code kOk
  AppendLE<std::uint32_t>(&payload, 0);  // empty message
  const Status decoded = DecodeErrorPayload(payload);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
}

// ------------------------------------------------------------- reassembly

TEST(WireReassemblyTest, SplitAtEveryByteBoundary) {
  WireQueryRequest request;
  request.venue_id = "split";
  request.clients = TwoClients();
  const std::string first =
      EncodeQueryFrame(100, IflsObjective::kMinDist, request);
  const std::string second = EncodeEmptyFrame(WireOpcode::kPing, 101);
  const std::string stream = first + second;
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    ByteRing ring;
    std::vector<WireFrame> frames;
    auto feed = [&](const char* data, std::size_t n) {
      ring.Append(data, n);
      while (true) {
        Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&ring);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        if (!decoded.value().has_value()) break;
        frames.push_back(std::move(*decoded.value()));
      }
    };
    feed(stream.data(), split);
    feed(stream.data() + split, stream.size() - split);
    ASSERT_EQ(frames.size(), 2u) << "split at " << split;
    EXPECT_EQ(frames[0].request_id, 100u);
    EXPECT_EQ(frames[0].opcode, WireOpcode::kQueryMinDist);
    EXPECT_EQ(frames[1].request_id, 101u);
    EXPECT_EQ(frames[1].opcode, WireOpcode::kPing);
    auto decoded = DecodeQueryRequest(frames[0].payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().venue_id, "split");
  }
}

TEST(WireReassemblyTest, OneByteAtATime) {
  WireSubscriptionPush push;
  push.subscription_id = 4;
  push.sequence = 2;
  push.found = true;
  push.answer = 3;
  push.objective = 1.5;
  const std::string stream = EncodePushFrame(50, push) +
                             EncodeErrorFrame(51, Status::NotFound("gone")) +
                             EncodeEmptyFrame(WireOpcode::kPong, 52);
  ByteRing ring;
  std::vector<WireFrame> frames;
  for (char byte : stream) {
    ring.Append(&byte, 1);
    Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&ring);
    ASSERT_TRUE(decoded.ok());
    if (decoded.value().has_value()) {
      frames.push_back(std::move(*decoded.value()));
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].opcode, WireOpcode::kSubscriptionPush);
  EXPECT_EQ(frames[1].opcode, WireOpcode::kError);
  EXPECT_EQ(frames[2].opcode, WireOpcode::kPong);
  EXPECT_EQ(DecodeErrorPayload(frames[1].payload).code(),
            StatusCode::kNotFound);
  auto decoded_push = DecodePush(frames[0].payload);
  ASSERT_TRUE(decoded_push.ok());
  EXPECT_EQ(decoded_push.value().answer, 3);
}

TEST(WireReassemblyTest, ByteRingCompactsWithoutLosingData) {
  // Interleave appends and consumes so the ring's head crosses the
  // compaction threshold repeatedly.
  ByteRing ring;
  std::string expect;
  std::size_t consumed = 0;
  for (int round = 0; round < 200; ++round) {
    std::string chunk(17 + round % 13, static_cast<char>('a' + round % 26));
    ring.Append(chunk.data(), chunk.size());
    expect += chunk;
    const std::size_t take = ring.size() / 2;
    // Verify the window before consuming half of it.
    ASSERT_EQ(std::string_view(ring.data(), ring.size()),
              std::string_view(expect).substr(consumed));
    ring.Consume(take);
    consumed += take;
  }
  EXPECT_EQ(std::string_view(ring.data(), ring.size()),
            std::string_view(expect).substr(consumed));
}

}  // namespace
}  // namespace ifls
