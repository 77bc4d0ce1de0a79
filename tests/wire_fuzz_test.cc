// Seeded mutation fuzz over the wire decoder: TryDecodeFrame, which every
// server connection and client feeds with bytes from its socket, and the
// Decode* payload decoders behind it. Starting from valid frames of every
// opcode (query frames with and without a trace context), each iteration
// joins one to three of them into a stream, applies a few mutations — bit
// flips, truncation, boundary values written into a header field (payload
// length, flags, version, opcode) or into a payload length or count, and
// appended garbage — and decodes the result twice: whole, and split at
// random boundaries. The invariant:
//
//   * TryDecodeFrame yields frames until the bytes run out (nullopt) or it
//     returns a typed InvalidArgument; never a crash, a hang or an
//     out-of-bounds read (run it under -DIFLS_SANITIZE=address, which also
//     enables UBSan, to make memory errors fatal);
//   * the split feed yields the same frames, leftover and verdict as the
//     whole feed;
//   * every payload decoder, run on every decoded payload, returns a value
//     or a typed InvalidArgument (DecodeErrorPayload: a non-ok Status), and
//     an accepted request payload re-encodes to the same bytes.
//
// Half of the iterations re-seal every frame's payload checksum after
// mutating; otherwise the checksum rejects almost every payload mutation
// and the payload decoders never see one.
//
// Carries its own main() so `--iterations=<n|high>` can scale the run (the
// `high` row is the nightly ctest configuration).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/endian.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/net/wire.h"

namespace ifls {
namespace {

// Mutated streams decoded per run; overridden by --iterations.
int g_iterations = 50000;

constexpr std::size_t kPayloadBytesOffset = 16;
constexpr std::size_t kChecksumOffset = 24;

std::vector<Client> SomeClients(std::size_t n) {
  std::vector<Client> clients;
  for (std::size_t i = 0; i < n; ++i) {
    Client c;
    c.id = static_cast<ClientId>(10 + i);
    c.partition = static_cast<PartitionId>(i % 5);
    c.position = Point(1.5 * static_cast<double>(i), -2.25,
                       static_cast<Level>(i % 2));
    clients.push_back(c);
  }
  return clients;
}

/// One valid frame of every opcode.
std::vector<std::string> ValidFrames() {
  std::vector<std::string> frames;
  TraceContext context;
  context.trace_id = 0xfeedface;
  context.parent_span_id = 7;
  context.sampled = true;
  context.client_send_nanos = 123456789;
  for (IflsObjective objective :
       {IflsObjective::kMinMax, IflsObjective::kMinDist,
        IflsObjective::kMaxSum}) {
    WireQueryRequest request;
    request.venue_id = "venue-a";
    request.deadline_seconds = 0.25;
    request.clients = SomeClients(3);
    frames.push_back(EncodeQueryFrame(1, objective, request));
    frames.push_back(EncodeQueryFrame(2, objective, request, &context));
  }
  frames.push_back(EncodeQueryFrame(3, IflsObjective::kMinMax, {}));
  frames.push_back(EncodeMutateFrame(
      4, {"venue-b", MutationKind::kRemoveCandidate, 17}));
  WireSubscribeRequest subscribe;
  subscribe.venue_id = "v";
  subscribe.tolerance = 0.5;
  subscribe.clients = SomeClients(2);
  frames.push_back(EncodeSubscribeFrame(5, subscribe));
  WireTickRequest tick;
  tick.venue_id = "venue-c";
  tick.subscription_id = 99;
  tick.client = 11;
  tick.position = Point(3.0, 4.0, 1);
  tick.partition = 2;
  frames.push_back(EncodeTickFrame(6, tick));
  frames.push_back(EncodeUnsubscribeFrame(7, {"venue-c", 99}));
  frames.push_back(EncodeEmptyFrame(WireOpcode::kMetricsPull, 8));
  frames.push_back(EncodeEmptyFrame(WireOpcode::kTracePull, 9));
  frames.push_back(EncodeEmptyFrame(WireOpcode::kPing, 10));
  frames.push_back(EncodeQueryResultFrame(11, {true, 42, 3.75, 5, 2}));
  frames.push_back(EncodeMutateResultFrame(12, {77}));
  frames.push_back(EncodeSubscribeResultFrame(13, {99}));
  frames.push_back(EncodeEmptyFrame(WireOpcode::kAck, 14));
  frames.push_back(EncodeTextFrame(WireOpcode::kMetricsText, 15,
                                   "ifls_queries_total 3\n"));
  frames.push_back(EncodeTextFrame(WireOpcode::kTraceJson, 16, "[]"));
  frames.push_back(EncodePongFrame(17, {1000, 2000}));
  frames.push_back(
      EncodePushFrame(5, {99, 1, 3, 2, 0.001, true, 8, 12.5}));
  frames.push_back(
      EncodeErrorFrame(18, Status::Unavailable("dispatch queue full")));
  return frames;
}

/// Overwrites the little-endian integer at `offset` when it lies inside
/// the stream.
template <typename T>
void WriteLE(std::string* bytes, std::size_t offset, T value) {
  if (offset + sizeof(value) > bytes->size()) return;
  std::string encoded;
  AppendLE(&encoded, value);
  bytes->replace(offset, sizeof(value), encoded);
}

/// Writes a boundary value into one header field of the frame at `start`.
void MutateHeaderField(std::string* bytes, std::size_t start, Rng* rng) {
  const std::uint32_t declared =
      start + kWireHeaderBytes <= bytes->size()
          ? LoadLE<std::uint32_t>(bytes->data() + start + kPayloadBytesOffset)
          : 0;
  switch (rng->NextBounded(4)) {
    case 0: {  // payload length
      const std::uint32_t values[] = {
          0, 1, 24, 25, declared - 1, declared + 1, kWireMaxPayloadBytes,
          kWireMaxPayloadBytes + 1, std::numeric_limits<std::uint32_t>::max()};
      WriteLE(bytes, start + kPayloadBytesOffset,
              values[rng->NextBounded(std::size(values))]);
      break;
    }
    case 1: {  // flags
      const std::uint32_t values[] = {
          0, kWireFlagTraceContext, 2, 3,
          std::numeric_limits<std::uint32_t>::max()};
      WriteLE(bytes, start + 20, values[rng->NextBounded(std::size(values))]);
      break;
    }
    case 2: {  // version
      const std::uint16_t values[] = {
          0, 2, kWireVersion, std::numeric_limits<std::uint16_t>::max()};
      WriteLE(bytes, start + 4, values[rng->NextBounded(std::size(values))]);
      break;
    }
    default:  // opcode: known or not
      WriteLE(bytes, start + 6,
              static_cast<std::uint16_t>(rng->NextBounded(256)));
      break;
  }
}

/// Writes a boundary value over a u32 inside the payload of the frame at
/// `start`: half the time its first word (the leading string length of
/// every request), otherwise a random position (string lengths and client
/// counts further in).
void MutatePayloadLength(std::string* bytes, std::size_t start, Rng* rng) {
  const std::size_t payload = start + kWireHeaderBytes;
  if (payload + 4 > bytes->size()) return;
  const std::size_t offset =
      rng->NextBounded(2) == 0
          ? payload
          : payload + rng->NextBounded(bytes->size() - payload - 3);
  const auto remaining = static_cast<std::uint32_t>(bytes->size() - offset);
  const std::uint32_t values[] = {
      0, 1, remaining - 5, remaining - 4, remaining - 3, remaining,
      0x09249249,  // * 28 bytes per client == 0xFFFFFFFC
      0x7fffffff, std::numeric_limits<std::uint32_t>::max()};
  WriteLE(bytes, offset, values[rng->NextBounded(std::size(values))]);
}

void FlipBits(std::string* bytes, Rng* rng) {
  if (bytes->empty()) return;
  const int flips = 1 + static_cast<int>(rng->NextBounded(8));
  for (int i = 0; i < flips; ++i) {
    const std::size_t pos = rng->NextBounded(bytes->size());
    (*bytes)[pos] =
        static_cast<char>((*bytes)[pos] ^ (1 << rng->NextBounded(8)));
  }
}

void Resize(std::string* bytes, Rng* rng) {
  if (rng->NextBounded(2) == 0 && !bytes->empty()) {
    bytes->resize(rng->NextBounded(bytes->size()));
  } else {
    const std::size_t extra = 1 + rng->NextBounded(64);
    for (std::size_t i = 0; i < extra; ++i) {
      bytes->push_back(static_cast<char>(rng->NextBounded(256)));
    }
  }
}

/// Recomputes each frame's payload checksum along the chain of (mutated)
/// length fields, as a forger would, so the payload decoders see the
/// mutation instead of the checksum rejecting it.
void Reseal(std::string* bytes) {
  std::size_t start = 0;
  while (start + kWireHeaderBytes <= bytes->size()) {
    const std::uint32_t length =
        LoadLE<std::uint32_t>(bytes->data() + start + kPayloadBytesOffset);
    if (length > bytes->size() - start - kWireHeaderBytes) return;
    WriteLE(bytes, start + kChecksumOffset,
            Checksum64(bytes->data() + start + kWireHeaderBytes, length));
    start += kWireHeaderBytes + length;
  }
}

/// What decoding a byte stream produced.
struct DecodeOutcome {
  std::vector<WireFrame> frames;
  Status status;  // the first non-ok TryDecodeFrame, else OK
  std::size_t leftover = 0;
};

/// Decodes every frame available in `ring` into `outcome`; false once the
/// stream is rejected (or a decode made no progress, reported as failure).
bool DrainRing(ByteRing* ring, DecodeOutcome* outcome) {
  while (true) {
    const std::size_t before = ring->size();
    Result<std::optional<WireFrame>> decoded = TryDecodeFrame(ring);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsInvalidArgument())
          << decoded.status().ToString();
      outcome->status = decoded.status();
      return false;
    }
    if (!decoded.value().has_value()) return true;
    if (ring->size() >= before) {
      ADD_FAILURE() << "a decoded frame consumed no bytes";
      return false;
    }
    outcome->frames.push_back(std::move(*decoded.value()));
  }
}

DecodeOutcome DecodeWhole(const std::string& bytes) {
  DecodeOutcome outcome;
  ByteRing ring;
  ring.Append(bytes.data(), bytes.size());
  DrainRing(&ring, &outcome);
  outcome.leftover = ring.size();
  return outcome;
}

DecodeOutcome DecodeSplit(const std::string& bytes, Rng* rng) {
  std::vector<std::size_t> cuts;
  const std::size_t pieces = 1 + rng->NextBounded(8);
  for (std::size_t i = 0; i < pieces && !bytes.empty(); ++i) {
    cuts.push_back(rng->NextBounded(bytes.size()));
  }
  cuts.push_back(bytes.size());
  std::sort(cuts.begin(), cuts.end());
  DecodeOutcome outcome;
  ByteRing ring;
  std::size_t fed = 0;
  for (const std::size_t cut : cuts) {
    ring.Append(bytes.data() + fed, cut - fed);
    fed = cut;
    if (!DrainRing(&ring, &outcome)) break;
  }
  outcome.leftover = ring.size();
  return outcome;
}

void ExpectSameOutcome(const DecodeOutcome& whole,
                       const DecodeOutcome& split) {
  ASSERT_EQ(whole.frames.size(), split.frames.size());
  for (std::size_t i = 0; i < whole.frames.size(); ++i) {
    const WireFrame& a = whole.frames[i];
    const WireFrame& b = split.frames[i];
    EXPECT_EQ(a.opcode, b.opcode);
    EXPECT_EQ(a.request_id, b.request_id);
    EXPECT_EQ(a.payload, b.payload);
    EXPECT_EQ(a.has_trace_context, b.has_trace_context);
    EXPECT_EQ(a.trace_context.trace_id, b.trace_context.trace_id);
    EXPECT_EQ(a.trace_context.client_send_nanos,
              b.trace_context.client_send_nanos);
  }
  EXPECT_EQ(whole.status.ToString(), split.status.ToString());
  if (whole.status.ok()) {
    EXPECT_EQ(whole.leftover, split.leftover);
  }
}

/// True when the decoder accepted; a rejection must be a typed
/// InvalidArgument.
template <typename T>
bool Accepts(const Result<T>& decoded) {
  if (!decoded.ok()) {
    EXPECT_TRUE(decoded.status().IsInvalidArgument())
        << decoded.status().ToString();
  }
  return decoded.ok();
}

std::string PayloadOf(const std::string& frame) {
  return frame.substr(kWireHeaderBytes);
}

/// Runs every payload decoder on `frame.payload`. Returns true when the
/// decoder for the frame's own opcode rejected it.
bool DecodePayloads(const WireFrame& frame) {
  const std::string_view p = frame.payload;
  const Result<WireQueryRequest> query = DecodeQueryRequest(p);
  const Result<WireMutateRequest> mutate = DecodeMutateRequest(p);
  const Result<WireSubscribeRequest> subscribe = DecodeSubscribeRequest(p);
  const Result<WireTickRequest> tick = DecodeTickRequest(p);
  const Result<WireUnsubscribeRequest> unsubscribe =
      DecodeUnsubscribeRequest(p);
  // Accepted requests consume exactly their bytes: re-encoding reproduces
  // the payload.
  if (Accepts(query)) {
    EXPECT_EQ(PayloadOf(EncodeQueryFrame(0, IflsObjective::kMinMax, *query)),
              p);
  }
  if (Accepts(mutate)) {
    EXPECT_EQ(PayloadOf(EncodeMutateFrame(0, *mutate)), p);
  }
  if (Accepts(subscribe)) {
    EXPECT_EQ(PayloadOf(EncodeSubscribeFrame(0, *subscribe)), p);
  }
  if (Accepts(tick)) {
    EXPECT_EQ(PayloadOf(EncodeTickFrame(0, *tick)), p);
  }
  if (Accepts(unsubscribe)) {
    EXPECT_EQ(PayloadOf(EncodeUnsubscribeFrame(0, *unsubscribe)), p);
  }
  const bool query_response = Accepts(DecodeQueryResponse(p));
  const bool mutate_response = Accepts(DecodeMutateResponse(p));
  const bool subscribe_response = Accepts(DecodeSubscribeResponse(p));
  const bool push = Accepts(DecodePush(p));
  const bool text = Accepts(DecodeTextResponse(p));
  const bool pong = Accepts(DecodePong(p));
  EXPECT_FALSE(DecodeErrorPayload(p).ok());
  switch (frame.opcode) {
    case WireOpcode::kQueryMinMax:
    case WireOpcode::kQueryMinDist:
    case WireOpcode::kQueryMaxSum: return !query.ok();
    case WireOpcode::kMutate: return !mutate.ok();
    case WireOpcode::kSubscribe: return !subscribe.ok();
    case WireOpcode::kSubscriptionTick: return !tick.ok();
    case WireOpcode::kUnsubscribe: return !unsubscribe.ok();
    case WireOpcode::kQueryResult: return !query_response;
    case WireOpcode::kMutateResult: return !mutate_response;
    case WireOpcode::kSubscribeResult: return !subscribe_response;
    case WireOpcode::kSubscriptionPush: return !push;
    case WireOpcode::kMetricsText:
    case WireOpcode::kTraceJson: return !text;
    case WireOpcode::kPong: return !pong;
    default: return false;
  }
}

TEST(WireFuzzTest, MutatedStreamsDecodeOrFailTyped) {
  const std::vector<std::string> valid = ValidFrames();
  int frames_decoded = 0;
  int streams_rejected = 0;
  int payloads_rejected_sealed = 0;  // own decoder rejected a sealed frame
  for (int it = 0; it < g_iterations; ++it) {
    SCOPED_TRACE("iteration " + std::to_string(it));
    Rng rng(0x31f3'0000 + static_cast<std::uint64_t>(it));
    std::string bytes;
    std::vector<std::size_t> starts;
    const std::size_t joined = 1 + rng.NextBounded(3);
    for (std::size_t i = 0; i < joined; ++i) {
      starts.push_back(bytes.size());
      bytes += valid[rng.NextBounded(valid.size())];
    }
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t start = starts[rng.NextBounded(starts.size())];
      switch (rng.NextBounded(4)) {
        case 0: FlipBits(&bytes, &rng); break;
        case 1: MutateHeaderField(&bytes, start, &rng); break;
        case 2: MutatePayloadLength(&bytes, start, &rng); break;
        default: Resize(&bytes, &rng); break;
      }
    }
    const bool sealed = it % 2 == 0;
    if (sealed) Reseal(&bytes);

    const DecodeOutcome whole = DecodeWhole(bytes);
    ExpectSameOutcome(whole, DecodeSplit(bytes, &rng));
    frames_decoded += static_cast<int>(whole.frames.size());
    if (!whole.status.ok()) ++streams_rejected;
    for (const WireFrame& frame : whole.frames) {
      if (DecodePayloads(frame) && sealed) ++payloads_rejected_sealed;
    }
    if (::testing::Test::HasFailure()) break;
  }
  std::printf("wire fuzz: %d iterations, %d frames decoded, %d streams "
              "rejected, %d re-sealed payloads rejected by their decoder\n",
              g_iterations, frames_decoded, streams_rejected,
              payloads_rejected_sealed);
  // The re-sealed half must reach the payload decoders, or the fuzz only
  // exercises the envelope checks.
  if (g_iterations >= 100) {
    EXPECT_GT(payloads_rejected_sealed, 0);
    EXPECT_GT(streams_rejected, 0);
  }
}

}  // namespace
}  // namespace ifls

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--iterations=", 13) != 0) continue;
    const std::string value = arg + 13;
    if (value == "high") {
      ifls::g_iterations = 500000;  // nightly configuration
    } else {
      ifls::g_iterations = std::max(1, std::atoi(value.c_str()));
    }
  }
  return RUN_ALL_TESTS();
}
