// Integration coverage of the wire server + client (DESIGN.md §13): every
// networked answer must be bit-identical to the in-process service and run
// through the service's own query path (deadlines, ServiceMetrics);
// backpressure from the dispatch queue travels as typed kUnavailable error
// frames (never dropped connections); mutations, standing subscriptions,
// metrics/trace pulls and corrupt-stream teardown all ride the same loop;
// and a thousand concurrent loopback connections, driven through
// IflsClient, verify differentially. The PR 10 additions (DESIGN.md §15)
// are covered here too: the HTTP admin plane sharing the binary port (valid
// scrapes, 400 on malformed requests, interleaving with binary traffic
// under TSan), pong timestamps feeding the clock-offset estimate, and wire
// trace-context propagation honoring the caller's sampling verdict
// server-side.

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/trace.h"
#include "src/core/solve_dispatch.h"
#include "src/datasets/client_generator.h"
#include "src/datasets/facility_selector.h"
#include "src/datasets/venue_generator.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/service/fleet_store.h"
#include "src/service/service.h"
#include "src/service/venue_router.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::BuildTinyVenue;
using testing_util::RandomClient;
using testing_util::TinyVenue;
using testing_util::Unwrap;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<Client> SomeClients(const Venue& venue, std::size_t n,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Client> clients;
  for (std::size_t i = 0; i < n; ++i) {
    clients.push_back(RandomClient(venue, &rng, static_cast<ClientId>(i)));
  }
  return clients;
}

/// One pre-answered query the load test replays: the in-process ground
/// truth every networked answer must equal bit for bit (found, answer,
/// objective).
struct NetExpectation {
  IflsObjective objective = IflsObjective::kMinMax;
  std::vector<Client> clients;
  bool found = false;
  PartitionId answer = kInvalidPartition;
  double objective_value = 0.0;
};

struct LoadTally {
  std::uint64_t completed = 0;   // answers equal to their expectation
  std::uint64_t errors = 0;      // failed sends and non-ok replies
  std::uint64_t mismatches = 0;  // answers differing from the expectation
};

/// Runs `rounds` rounds over `clients`: each round sends one query on every
/// client, then waits for every reply. Client i (numbered from `first`)
/// replays expectation (first + i + round) mod size, so concurrent queries
/// mix objectives and client sets.
LoadTally DriveClients(std::span<const std::unique_ptr<IflsClient>> clients,
                       std::size_t first, int rounds,
                       const std::vector<NetExpectation>& expectations) {
  LoadTally tally;
  std::vector<std::optional<std::uint64_t>> request_ids(clients.size());
  for (int round = 0; round < rounds; ++round) {
    const auto expectation = [&](std::size_t i) -> const NetExpectation& {
      return expectations[(first + i + static_cast<std::size_t>(round)) %
                          expectations.size()];
    };
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const NetExpectation& exp = expectation(i);
      WireQueryRequest request;
      request.clients = exp.clients;
      Result<std::uint64_t> id = clients[i]->SendQuery(exp.objective, request);
      request_ids[i].reset();
      if (id.ok()) {
        request_ids[i] = id.value();
      } else {
        ++tally.errors;
      }
    }
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (!request_ids[i].has_value()) continue;
      const NetExpectation& exp = expectation(i);
      Result<WireQueryResponse> response =
          clients[i]->WaitQuery(*request_ids[i]);
      if (!response.ok()) {
        ++tally.errors;
      } else if (response->found != exp.found ||
                 response->answer != exp.answer ||
                 !BitEqual(response->objective, exp.objective_value)) {
        ++tally.mismatches;
      } else {
        ++tally.completed;
      }
    }
  }
  return tally;
}

/// Client count of a query that keeps a dispatcher busy for a while on the
/// tiny venue (the backpressure test parks the dispatcher on it).
constexpr std::size_t kHeavyQueryClients = 200000;

std::shared_ptr<IflsService> MakeTinyService(ServiceOptions options = {}) {
  TinyVenue tiny = BuildTinyVenue();
  return std::shared_ptr<IflsService>(Unwrap(IflsService::Create(
      std::move(tiny.venue), {tiny.room_a}, {tiny.room_b, tiny.room_c},
      options)));
}

// ----------------------------------------------------------------- queries

TEST(NetServerTest, QueryBitIdenticalToInProcess) {
  std::shared_ptr<IflsService> service = MakeTinyService();
  const std::vector<Client> clients =
      SomeClients(service->AcquireState()->snapshot->venue(), 6, 11);

  // In-process ground truth, one per objective.
  std::vector<ServiceReply> expected;
  for (IflsObjective objective :
       {IflsObjective::kMinMax, IflsObjective::kMinDist,
        IflsObjective::kMaxSum}) {
    ServiceRequest request;
    request.objective = objective;
    request.clients = clients;
    expected.push_back(service->Query(std::move(request)));
    ASSERT_TRUE(expected.back().status.ok());
  }
  const std::uint64_t completed_in_process = service->Metrics().completed;

  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));

  int idx = 0;
  for (IflsObjective objective :
       {IflsObjective::kMinMax, IflsObjective::kMinDist,
        IflsObjective::kMaxSum}) {
    WireQueryRequest request;
    request.clients = clients;
    const WireQueryResponse response =
        Unwrap(client->Query(objective, request));
    EXPECT_EQ(response.found, expected[idx].result.found);
    EXPECT_EQ(response.answer, expected[idx].result.answer);
    EXPECT_TRUE(BitEqual(response.objective, expected[idx].result.objective))
        << "objective " << idx;
    EXPECT_EQ(response.snapshot_epoch, expected[idx].snapshot_epoch);
    ++idx;
  }
  // Networked queries ran through the service's own Execute.
  EXPECT_EQ(service->Metrics().completed, completed_in_process + 3);
  server->Stop();
  service->Stop();
}

TEST(NetServerTest, PipelinedResponsesMatchedByRequestId) {
  std::shared_ptr<IflsService> service = MakeTinyService();
  const Venue& venue = service->AcquireState()->snapshot->venue();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));

  constexpr int kInFlight = 16;
  std::vector<std::uint64_t> ids;
  std::vector<ServiceReply> expected;
  for (int i = 0; i < kInFlight; ++i) {
    const std::vector<Client> clients =
        SomeClients(venue, 4, 100 + static_cast<std::uint64_t>(i));
    ServiceRequest request;
    request.objective = IflsObjective::kMinMax;
    request.clients = clients;
    expected.push_back(service->Query(std::move(request)));
    ASSERT_TRUE(expected.back().status.ok());
    WireQueryRequest wire_request;
    wire_request.clients = clients;
    ids.push_back(
        Unwrap(client->SendQuery(IflsObjective::kMinMax, wire_request)));
  }
  // Collect deliberately in reverse submission order: responses are keyed
  // by request id, not arrival order.
  for (int i = kInFlight - 1; i >= 0; --i) {
    const WireQueryResponse response = Unwrap(client->WaitQuery(ids[i]));
    EXPECT_EQ(response.found, expected[i].result.found);
    EXPECT_EQ(response.answer, expected[i].result.answer);
    EXPECT_TRUE(BitEqual(response.objective, expected[i].result.objective));
  }
  server->Stop();
  service->Stop();
}

// ----------------------------------------------------------- backpressure

TEST(NetServerTest, BackpressureTravelsAsTypedErrorFrame) {
  // One dispatcher and a one-slot dispatch queue, the networked path's only
  // admission point. A heavy query parks the dispatcher; of the burst sent
  // while it solves, the first query waits in the queue and every later one
  // is shed with kUnavailable — which must arrive as a typed error frame on
  // a healthy connection, not a dropped one.
  std::shared_ptr<IflsService> service = MakeTinyService();
  const Venue& venue = service->AcquireState()->snapshot->venue();

  ServerOptions server_options;
  server_options.num_dispatchers = 1;
  server_options.dispatch_queue_capacity = 1;
  std::unique_ptr<IflsServer> server =
      Unwrap(IflsServer::Create(service, server_options));
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));

  WireQueryRequest heavy;
  heavy.clients = SomeClients(venue, kHeavyQueryClients, 5);
  const std::uint64_t heavy_id =
      Unwrap(client->SendQuery(IflsObjective::kMinMax, heavy));
  // admitted == 1: the dispatcher popped the heavy query and is solving it,
  // so the dispatch queue is empty again.
  for (int spin = 0; spin < 5000 && service->Metrics().admitted < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service->Metrics().admitted, 1u);

  constexpr int kBurst = 6;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    WireQueryRequest request;
    request.clients = SomeClients(venue, 3, 7);
    ids.push_back(
        Unwrap(client->SendQuery(IflsObjective::kMinMax, request)));
  }
  EXPECT_TRUE(client->WaitQuery(heavy_id).ok());
  int ok = 0;
  int unavailable = 0;
  for (std::uint64_t id : ids) {
    Result<WireQueryResponse> response = client->WaitQuery(id);
    if (response.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
          << response.status().ToString();
      ++unavailable;
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(unavailable, kBurst - 1);
  EXPECT_EQ(server->Metrics().rejected,
            static_cast<std::uint64_t>(kBurst - 1));
  // Shed before reaching the service: it admitted only the two that ran.
  EXPECT_EQ(service->Metrics().admitted, 2u);
  // The connection survived the shedding: a ping still round-trips.
  EXPECT_TRUE(client->Ping().ok());

  // The rejected counter is visible over the wire too.
  const std::string metrics = Unwrap(client->PullMetrics());
  EXPECT_NE(metrics.find("ifls_net_rejected_total"), std::string::npos);
  server->Stop();
  service->Stop();
}

TEST(NetServerTest, WireDeadlineExpiresOnTheDefaultServer) {
  // The deadline runs from frame decode, so 1 ns has always passed by the
  // time a dispatcher runs the query: a typed kDeadlineExceeded frame, and
  // the service counts the expiry.
  std::shared_ptr<IflsService> service = MakeTinyService();
  const Venue& venue = service->AcquireState()->snapshot->venue();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));

  WireQueryRequest request;
  request.deadline_seconds = 1e-9;
  request.clients = SomeClients(venue, 4, 9);
  Result<WireQueryResponse> response =
      client->Query(IflsObjective::kMinMax, request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  EXPECT_EQ(service->Metrics().deadline_expired, 1u);
  EXPECT_EQ(service->Metrics().completed, 0u);
  EXPECT_TRUE(client->Ping().ok());
  server->Stop();
  service->Stop();
}

// ------------------------------------------------------------- mutations

TEST(NetServerTest, MutationsApplyAndAffectSubsequentQueries) {
  std::shared_ptr<IflsService> service = MakeTinyService();
  const Venue& venue = service->AcquireState()->snapshot->venue();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));

  // Mirror service on an identical venue to predict the post-mutation
  // answer in-process.
  std::shared_ptr<IflsService> mirror = MakeTinyService();
  TinyVenue layout = BuildTinyVenue();  // for partition ids

  WireMutateRequest mutate;
  mutate.kind = MutationKind::kAddCandidate;
  mutate.partition = layout.room_d;
  const WireMutateResponse applied = Unwrap(client->Mutate(mutate));
  EXPECT_EQ(applied.applied_version, 1u);
  ASSERT_TRUE(mirror
                  ->Mutate(Mutation{MutationKind::kAddCandidate,
                                    layout.room_d})
                  .ok());

  const std::vector<Client> clients = SomeClients(venue, 5, 21);
  ServiceRequest mirror_request;
  mirror_request.objective = IflsObjective::kMinMax;
  mirror_request.clients = clients;
  const ServiceReply expected = mirror->Query(std::move(mirror_request));
  ASSERT_TRUE(expected.status.ok());

  WireQueryRequest request;
  request.clients = clients;
  const WireQueryResponse response =
      Unwrap(client->Query(IflsObjective::kMinMax, request));
  EXPECT_EQ(response.found, expected.result.found);
  EXPECT_EQ(response.answer, expected.result.answer);
  EXPECT_TRUE(BitEqual(response.objective, expected.result.objective));
  EXPECT_EQ(response.overlay_size, 1u);

  // Invalid mutation surfaces its typed status, connection intact.
  WireMutateRequest bad;
  bad.kind = MutationKind::kAddCandidate;
  bad.partition = layout.room_d;  // already a candidate now
  Result<WireMutateResponse> rejected = client->Mutate(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(client->Ping().ok());
  server->Stop();
  service->Stop();
  mirror->Stop();
}

// ---------------------------------------------------------- subscriptions

TEST(NetServerTest, SubscriptionPushesStreamOverTheConnection) {
  std::shared_ptr<IflsService> service = MakeTinyService();
  const Venue& venue = service->AcquireState()->snapshot->venue();
  TinyVenue layout = BuildTinyVenue();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));

  WireSubscribeRequest subscribe;
  subscribe.clients = SomeClients(venue, 4, 31);
  const WireSubscription sub = Unwrap(client->Subscribe(subscribe));
  EXPECT_NE(sub.subscription_id, 0u);

  // Push #0 (the initial answer) is delivered during registration; it may
  // arrive before or after the subscribe result, tagged with its request id.
  ReceivedPush initial = Unwrap(client->WaitPush());
  EXPECT_EQ(initial.request_id, sub.request_id);
  EXPECT_EQ(initial.push.subscription_id, sub.subscription_id);
  EXPECT_EQ(initial.push.sequence, 0u);
  EXPECT_TRUE(initial.push.found);

  // Removing the current best candidate invalidates the standing answer and
  // pushes sequence 1 at version 1 over the same connection.
  WireMutateRequest mutate;
  mutate.kind = MutationKind::kRemoveCandidate;
  mutate.partition = initial.push.answer;
  Unwrap(client->Mutate(mutate));
  ReceivedPush next = Unwrap(client->WaitPush());
  EXPECT_EQ(next.push.sequence, 1u);
  EXPECT_EQ(next.push.version, 1u);
  EXPECT_NE(next.push.answer, initial.push.answer);

  // Tick a client across the venue: acks even when it does not invalidate.
  WireTickRequest tick;
  tick.subscription_id = sub.subscription_id;
  tick.client = 0;
  tick.position = Point(25.0, 2.0, 0);
  tick.partition = layout.room_b;
  ASSERT_TRUE(client->Tick(tick).ok());

  WireUnsubscribeRequest unsubscribe;
  unsubscribe.subscription_id = sub.subscription_id;
  EXPECT_TRUE(client->Unsubscribe(unsubscribe).ok());
  // Unknown id after teardown: typed NotFound, connection intact.
  EXPECT_EQ(client->Unsubscribe(unsubscribe).code(), StatusCode::kNotFound);
  EXPECT_TRUE(client->Ping().ok());
  server->Stop();
  service->Stop();
}

// ------------------------------------------------- observability over wire

TEST(NetServerTest, MetricsAndTracePullOverWire) {
  std::shared_ptr<IflsService> service = MakeTinyService();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));
  const std::string metrics = Unwrap(client->PullMetrics());
  EXPECT_NE(metrics.find("ifls_net_frames_total"), std::string::npos);
  EXPECT_NE(metrics.find("ifls_net_connections"), std::string::npos);
  const std::string trace = Unwrap(client->PullTrace());
  EXPECT_FALSE(trace.empty());
  server->Stop();
  service->Stop();
}

// --------------------------------------------------- HTTP admin plane

/// One HTTP exchange against the server's port: writes `request` verbatim,
/// reads until the server closes (the admin plane is one-shot HTTP/1.0).
/// Poll-bounded so a regression cannot hang the suite.
std::string HttpExchange(std::uint16_t port, const std::string& request) {
  OwnedFd fd = Unwrap(ConnectTcp(port));
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd.get(), request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(sent, request.size());
  std::string response;
  char buf[4096];
  for (int rounds = 0; rounds < 200; ++rounds) {
    pollfd pfd{fd.get(), POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;
    const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n <= 0) break;  // EOF: the server closed after its one response
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(NetServerTest, HttpAdminPlaneServesScrapeEndpoints) {
  ServiceOptions service_options;
  service_options.venue_label = "tiny";
  std::shared_ptr<IflsService> service = MakeTinyService(service_options);
  const Venue& venue = service->AcquireState()->snapshot->venue();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));

  // One binary query first so the cost ledger has something to expose.
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));
  WireQueryRequest request;
  request.clients = SomeClients(venue, 4, 5);
  ASSERT_TRUE(client->Query(IflsObjective::kMinMax, request).ok());

  const std::string metrics =
      HttpExchange(server->port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("ifls_net_connections"), std::string::npos);
  EXPECT_NE(metrics.find("ifls_ledger_queries_total{venue=\"tiny\""),
            std::string::npos);
  EXPECT_NE(metrics.find("ifls_net_http_requests_total"), std::string::npos);

  const std::string healthz =
      HttpExchange(server->port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(healthz.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("\r\n\r\nok\n"), std::string::npos);

  // Query strings are stripped before routing (Prometheus appends none, but
  // curl users do).
  const std::string venues = HttpExchange(
      server->port(), "GET /venues?pretty=1 HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(venues.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(venues.find("application/json"), std::string::npos);
  EXPECT_NE(venues.find("\"venue_id\": \"tiny\""), std::string::npos);
  EXPECT_NE(venues.find("\"resident\": true"), std::string::npos);

  const std::string slow =
      HttpExchange(server->port(), "GET /slow HTTP/1.0\r\n\r\n");
  EXPECT_NE(slow.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(slow.find("\"slow_queries\""), std::string::npos);

  const std::string missing =
      HttpExchange(server->port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);

  // The sniff left binary connections untouched: the client still works,
  // and the admin requests were counted.
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GE(server->Metrics().http_requests, 5u);
  server->Stop();
  service->Stop();
}

TEST(NetServerTest, HttpBadRequestAnswered400AndClosed) {
  std::shared_ptr<IflsService> service = MakeTinyService();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));

  // Sniffs as HTTP (starts with "GET ") but the request line is malformed:
  // no version token. The server must answer 400 and close, not hang.
  const std::string bad =
      HttpExchange(server->port(), "GET junk\r\n\r\n");
  EXPECT_NE(bad.find("HTTP/1.0 400 Bad Request"), std::string::npos);

  // Non-GET methods never reach HTTP mode (the sniff is exactly "GET "), so
  // they travel the binary path and tear down as a corrupt envelope — but a
  // GET whose header block never terminates is bounded: past 8 KiB without
  // "\r\n\r\n" the server answers 400 and closes rather than buffering
  // forever.
  const std::string oversized = HttpExchange(
      server->port(), "GET /metrics HTTP/1.0\r\nPadding: " +
                          std::string(9000, 'x'));  // no terminator, ever
  EXPECT_NE(oversized.find("HTTP/1.0 400 Bad Request"), std::string::npos);

  // The server survived both: a well-formed scrape still answers.
  const std::string ok =
      HttpExchange(server->port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos);
  server->Stop();
  service->Stop();
}

TEST(NetServerTest, HttpAndBinaryInterleaveOnOnePort) {
  std::shared_ptr<IflsService> service = MakeTinyService();
  const Venue& venue = service->AcquireState()->snapshot->venue();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));

  ServiceRequest truth_request;
  truth_request.objective = IflsObjective::kMinMax;
  truth_request.clients = SomeClients(venue, 4, 77);
  const ServiceReply expected = service->Query(std::move(truth_request));
  ASSERT_TRUE(expected.status.ok());

  constexpr int kThreadsPerKind = 4;
  constexpr int kRequestsPerThread = 8;
  std::atomic<int> http_ok{0};
  std::atomic<int> query_ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreadsPerKind; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string response = HttpExchange(
            server->port(), "GET /metrics HTTP/1.0\r\n\r\n");
        if (response.find("HTTP/1.0 200 OK") != std::string::npos &&
            response.find("ifls_net_frames_total") != std::string::npos) {
          http_ok.fetch_add(1);
        }
      }
    });
    threads.emplace_back([&] {
      std::unique_ptr<IflsClient> client =
          Unwrap(IflsClient::Connect(server->port()));
      for (int i = 0; i < kRequestsPerThread; ++i) {
        WireQueryRequest request;
        request.clients = SomeClients(venue, 4, 77);
        Result<WireQueryResponse> response =
            client->Query(IflsObjective::kMinMax, request);
        if (response.ok() && response.value().answer == expected.result.answer &&
            BitEqual(response.value().objective, expected.result.objective)) {
          query_ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(http_ok.load(), kThreadsPerKind * kRequestsPerThread);
  EXPECT_EQ(query_ok.load(), kThreadsPerKind * kRequestsPerThread);
  server->Stop();
  service->Stop();
}

// ------------------------------------------------- distributed tracing

TEST(NetServerTest, ClockOffsetEstimateFromPongTimestamps) {
  std::shared_ptr<IflsService> service = MakeTinyService();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));
  const std::int64_t offset = Unwrap(client->EstimateClockOffset());
  // Client and server share one process here, so the true offset is zero;
  // the estimate is bounded by the loopback RTT. A second's slack keeps the
  // assertion robust on the slowest CI machine while still catching
  // sign/unit mistakes (a nanos/micros mixup is off by 10^3).
  EXPECT_LT(std::llabs(offset), 1'000'000'000ll);
  server->Stop();
  service->Stop();
}

TEST(NetServerTest, TraceContextPropagatesAcrossTheWire) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable(1);

  std::shared_ptr<IflsService> service = MakeTinyService();
  const Venue& venue = service->AcquireState()->snapshot->venue();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));

  const std::uint64_t trace_id = recorder.NewTraceId();
  {
    TraceIdScope scope(trace_id, /*sampled=*/true);
    WireQueryRequest request;
    request.clients = SomeClients(venue, 4, 13);
    ASSERT_TRUE(client->Query(IflsObjective::kMinMax, request).ok());
  }
  // The server executed before replying, so its spans are already recorded;
  // collect the client and server sides of the same trace id.
  bool has_rpc = false;
  bool has_queue_wait = false;
  bool has_solve = false;
  for (const TraceEvent& event : recorder.SnapshotTrace(trace_id)) {
    const std::string name = event.name != nullptr ? event.name : "";
    has_rpc |= name == "rpc_query";
    has_queue_wait |= name == "queue_wait";
    has_solve |= name == "solve";
  }
  EXPECT_TRUE(has_rpc);
  EXPECT_TRUE(has_queue_wait);
  EXPECT_TRUE(has_solve);

  // A propagated not-sampled verdict is honored: the server must not
  // re-roll the draw, so the trace id records nothing on either side.
  const std::uint64_t unsampled_id = recorder.NewTraceId();
  {
    TraceIdScope scope(unsampled_id, /*sampled=*/false);
    WireQueryRequest request;
    request.clients = SomeClients(venue, 4, 13);
    ASSERT_TRUE(client->Query(IflsObjective::kMinMax, request).ok());
  }
  EXPECT_TRUE(recorder.SnapshotTrace(unsampled_id).empty());

  server->Stop();
  service->Stop();
  recorder.Disable();
  recorder.Clear();
}

// ------------------------------------------------------- protocol hygiene

TEST(NetServerTest, CorruptEnvelopeTearsDownOnlyThatConnection) {
  std::shared_ptr<IflsService> service = MakeTinyService();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));

  OwnedFd raw = Unwrap(ConnectTcp(server->port()));
  const char garbage[40] = "this is definitely not an IFLW frame...";
  ASSERT_EQ(::write(raw.get(), garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  // The server answers with a best-effort error frame and closes; read
  // until EOF (poll-bounded so a regression cannot hang the suite).
  char buf[4096];
  bool closed = false;
  for (int rounds = 0; rounds < 100 && !closed; ++rounds) {
    pollfd pfd{raw.get(), POLLIN, 0};
    ASSERT_GT(::poll(&pfd, 1, 5000), 0) << "server never closed the stream";
    ssize_t n = ::read(raw.get(), buf, sizeof(buf));
    if (n == 0) closed = true;
    ASSERT_GE(n, 0);
  }
  EXPECT_TRUE(closed);

  // A well-behaved connection to the same server still works.
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));
  EXPECT_TRUE(client->Ping().ok());
  server->Stop();
  service->Stop();
}

TEST(NetServerTest, SingleVenueServerRejectsVenueIds) {
  std::shared_ptr<IflsService> service = MakeTinyService();
  const Venue& venue = service->AcquireState()->snapshot->venue();
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::Create(service));
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));
  WireQueryRequest request;
  request.venue_id = "not-a-fleet";
  request.clients = SomeClients(venue, 2, 3);
  Result<WireQueryResponse> response =
      client->Query(IflsObjective::kMinMax, request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client->Ping().ok());
  server->Stop();
  service->Stop();
}

// ----------------------------------------------------------- fleet routing

TEST(NetServerTest, FleetServerRoutesByVenueId) {
  // Two distinct venues in a fleet directory; the wire venue_id picks which
  // one answers, hydrating lazily on first touch.
  const std::string root =
      ::testing::TempDir() + "/ifls_net_fleet";
  std::filesystem::remove_all(root);
  std::vector<Venue> venues;
  std::vector<FacilitySets> sets;
  for (int i = 0; i < 2; ++i) {
    VenueGeneratorSpec spec = testing_util::SmallVenueSpec();
    spec.name = "venue" + std::to_string(i);
    spec.rooms_per_level += 4 * i;
    spec.door_jitter_seed = static_cast<std::uint64_t>(i + 1);
    venues.push_back(Unwrap(GenerateVenue(spec)));
    Venue& venue = venues.back();
    VipTree tree = Unwrap(VipTree::Build(&venue));
    Rng rng(static_cast<std::uint64_t>(100 + i));
    sets.push_back(Unwrap(SelectUniformFacilities(venue, 3, 6, &rng)));
    ASSERT_TRUE(WriteVenueSnapshot(root + "/" + spec.name, venue, tree,
                                   sets.back().existing,
                                   sets.back().candidates)
                    .ok());
  }
  std::shared_ptr<VenueRouter> router = Unwrap(VenueRouter::Open(root));
  std::unique_ptr<IflsServer> server = Unwrap(IflsServer::CreateFleet(router));
  std::unique_ptr<IflsClient> client =
      Unwrap(IflsClient::Connect(server->port()));

  for (int i = 0; i < 2; ++i) {
    const std::string venue_id = "venue" + std::to_string(i);
    Rng rng(static_cast<std::uint64_t>(7 + i));
    std::vector<Client> clients =
        GenerateClients(venues[static_cast<std::size_t>(i)], 8, {}, &rng);

    ServiceRequest truth_request;
    truth_request.objective = IflsObjective::kMinMax;
    truth_request.clients = clients;
    const ServiceReply expected =
        router->Query(venue_id, std::move(truth_request));
    ASSERT_TRUE(expected.status.ok());

    WireQueryRequest request;
    request.venue_id = venue_id;
    request.clients = std::move(clients);
    const WireQueryResponse response =
        Unwrap(client->Query(IflsObjective::kMinMax, request));
    EXPECT_EQ(response.found, expected.result.found);
    EXPECT_EQ(response.answer, expected.result.answer);
    EXPECT_TRUE(BitEqual(response.objective, expected.result.objective))
        << venue_id;
  }

  // Unknown venue: typed NotFound, connection intact.
  Rng rng(99);
  WireQueryRequest missing;
  missing.venue_id = "no-such-venue";
  missing.clients = GenerateClients(venues[0], 2, {}, &rng);
  Result<WireQueryResponse> response =
      client->Query(IflsObjective::kMinMax, missing);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(client->Ping().ok());
  server->Stop();
}

// --------------------------------------------------- concurrency at scale

TEST(NetServerTest, ThousandConnectionsBitIdenticalUnderLoad) {
  std::shared_ptr<IflsService> service = MakeTinyService();
  const Venue& venue = service->AcquireState()->snapshot->venue();

  // Ground truth straight from the in-process service.
  std::vector<NetExpectation> expectations;
  int seed = 0;
  for (IflsObjective objective :
       {IflsObjective::kMinMax, IflsObjective::kMinDist,
        IflsObjective::kMaxSum}) {
    for (int rep = 0; rep < 3; ++rep) {
      NetExpectation expectation;
      expectation.objective = objective;
      expectation.clients =
          SomeClients(venue, 4, 400 + static_cast<std::uint64_t>(seed++));
      ServiceRequest request;
      request.objective = objective;
      request.clients = expectation.clients;
      const ServiceReply reply = service->Query(std::move(request));
      ASSERT_TRUE(reply.status.ok());
      expectation.found = reply.result.found;
      expectation.answer = reply.result.answer;
      expectation.objective_value = reply.result.objective;
      expectations.push_back(std::move(expectation));
    }
  }

  const std::uint64_t completed_in_process = service->Metrics().completed;
  ServerOptions server_options;
  server_options.num_dispatchers = 4;
  server_options.dispatch_queue_capacity = 8192;  // errors==0 asserted below
  std::unique_ptr<IflsServer> server =
      Unwrap(IflsServer::Create(service, server_options));

  // Both ends of every connection live in this process.
  constexpr std::size_t kConnections = 1024;
  constexpr int kThreads = 8;
  constexpr int kRounds = 2;
  ASSERT_TRUE(EnsureFdLimit(kConnections * 2 + 256).ok());
  // Every connection is open before the first query, so all 1024 are live
  // on the server at once.
  std::vector<std::unique_ptr<IflsClient>> clients;
  clients.reserve(kConnections);
  for (std::size_t i = 0; i < kConnections; ++i) {
    clients.push_back(Unwrap(IflsClient::Connect(server->port())));
  }
  constexpr std::size_t kPerThread = kConnections / kThreads;
  std::vector<LoadTally> tallies(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t first = static_cast<std::size_t>(t) * kPerThread;
      tallies[static_cast<std::size_t>(t)] = DriveClients(
          std::span(clients).subspan(first, kPerThread), first, kRounds,
          expectations);
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoadTally report;
  for (const LoadTally& tally : tallies) {
    report.completed += tally.completed;
    report.errors += tally.errors;
    report.mismatches += tally.mismatches;
  }
  EXPECT_EQ(report.mismatches, 0u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.completed, kConnections * kRounds);
  // Every networked query ran through the service's own Execute.
  const ServerMetrics metrics = server->Metrics();
  EXPECT_EQ(metrics.queries, kConnections * kRounds);
  EXPECT_EQ(service->Metrics().completed - completed_in_process,
            kConnections * kRounds);
  server->Stop();
  service->Stop();
}

}  // namespace
}  // namespace ifls
