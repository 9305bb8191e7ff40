// Deadline propagation and per-tenant rate limiting over real loopback
// sockets, plus the wire v1/v2 byte pins that keep the extended request
// header backward-compatible.
//
// The deadline contract under test (DESIGN.md §12): a request whose budget
// is gone is answered kDeadlineExceeded as early as possible — at
// admission without consuming a worker, a queue slot, or a rate token; at
// worker dequeue without executing the statement. Both rejections are
// counter-verified against the ENGINE's statistics: expired work must
// never reach it.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/advisor_builder.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

constexpr char kHost[] = "127.0.0.1";
constexpr char kSumQuery[] =
    "SELECT time, SUM(sales) FROM facts GROUP BY time AS OF now() + '3'";

class OverloadServerFixture : public ::testing::Test {
 protected:
  OverloadServerFixture()
      : evaluator_graph_(testing::MakeFigure2Cube(60, 0.05)),
        evaluator_(evaluator_graph_, 0.8),
        factory_(ModelSpec::TripleExponentialSmoothing(12)) {
    AdvisorOptions advisor_options;
    advisor_options.models_per_iteration = 4;
    advisor_options.stop.max_iterations = 12;
    AdvisorBuilder builder(advisor_options);
    auto outcome = builder.Build(evaluator_, factory_);
    EXPECT_TRUE(outcome.ok());
    config_ = std::move(outcome.value().configuration);
  }

  std::unique_ptr<F2dbEngine> MakeEngine(EngineOptions options = {}) {
    auto engine = std::make_unique<F2dbEngine>(
        testing::MakeFigure2Cube(60, 0.05), options);
    EXPECT_TRUE(engine->LoadConfiguration(config_, evaluator_).ok());
    return engine;
  }

  /// Inserts `periods` full periods at the frontier.
  static void Advance(F2dbEngine& engine, int periods) {
    const std::vector<NodeId> bases = engine.graph().base_nodes();
    for (int period = 0; period < periods; ++period) {
      const std::int64_t t =
          engine.snapshot()->graph->series(bases[0]).end_time();
      for (std::size_t i = 0; i < bases.size(); ++i) {
        const Status status =
            engine.InsertFact(bases[i], t, 10.0 + static_cast<double>(i));
        ASSERT_TRUE(status.ok()) << status.message();
      }
    }
  }

  /// Polls until the server reports `want` in-flight requests (5s bound).
  static bool WaitForInFlight(const F2dbServer& server, std::size_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (server.stats().in_flight_requests == want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  ModelConfiguration config_;
};

using DeadlineTest = OverloadServerFixture;
using RateLimitWireTest = OverloadServerFixture;

// ---------------------------------------------------------------------------
// Wire pins: the v2 extended header must not disturb v1 bytes.

TEST(DeadlineWireTest, V1RequestBytesArePinned) {
  // A v1 request — no deadline — must encode exactly as it did before the
  // extended header existed: u32-LE length, bare type byte, body.
  WireRequest request;
  request.type = FrameType::kQuery;
  request.body = "Q";
  const std::string frame = EncodeRequest(request);
  const std::string expected = {'\x02', '\x00', '\x00', '\x00', '\x01', 'Q'};
  EXPECT_EQ(frame, expected);

  // And a bare type byte decodes as "no deadline".
  auto decoded = DecodeRequestPayload(std::string("\x01", 1) + "Q");
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().has_deadline);
  EXPECT_EQ(decoded.value().deadline_ms, 0u);
  EXPECT_EQ(decoded.value().body, "Q");
}

TEST(DeadlineWireTest, V2DeadlineHeaderBytesArePinned) {
  WireRequest request;
  request.type = FrameType::kQuery;
  request.has_deadline = true;
  request.deadline_ms = 0x04030201u;
  request.body = "Q";
  const std::string frame = EncodeRequest(request);
  // length 6 = type + 4 deadline bytes + 1 body byte; type carries the
  // high-bit flag; the deadline is little-endian.
  const std::string expected = {'\x06', '\x00', '\x00', '\x00', '\x81',
                                '\x01', '\x02', '\x03', '\x04', 'Q'};
  EXPECT_EQ(frame, expected);

  auto decoded = DecodeRequestPayload(frame.substr(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, FrameType::kQuery);
  EXPECT_TRUE(decoded.value().has_deadline);
  EXPECT_EQ(decoded.value().deadline_ms, 0x04030201u);
  EXPECT_EQ(decoded.value().body, "Q");
}

TEST(DeadlineWireTest, ZeroDeadlineDecodesAsAlreadyExpired) {
  auto decoded =
      DecodeRequestPayload(std::string("\x81\x00\x00\x00\x00", 5));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().has_deadline);
  EXPECT_EQ(decoded.value().deadline_ms, 0u);
  EXPECT_TRUE(decoded.value().body.empty());
}

TEST(DeadlineWireTest, TruncatedExtendedHeaderIsRejected) {
  // The flag announces 4 deadline bytes; fewer is a framing error, not a
  // silent partial decode.
  auto decoded = DecodeRequestPayload(std::string("\x81\x01\x02", 3));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Server-side deadline enforcement, counter-verified against the engine.

TEST_F(DeadlineTest, AlreadyExpiredRejectedAtAdmissionWithoutAWorker) {
  auto engine = MakeEngine();
  F2dbServer server(*engine);
  ASSERT_TRUE(server.Start().ok());
  auto client = F2dbClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  // deadline_ms = 0 means the budget was gone before the frame was sent.
  auto expired = client.value().CallWithDeadline(FrameType::kQuery,
                                                 kSumQuery, /*deadline_ms=*/0);
  ASSERT_TRUE(expired.ok()) << expired.status().message();
  EXPECT_EQ(expired.value().status, StatusCode::kDeadlineExceeded);
  EXPECT_NE(expired.value().body.find("before admission"), std::string::npos);

  // The rejection happened at admission: the engine never saw a query, and
  // no worker recorded a mid-queue expiry.
  EXPECT_EQ(engine->stats().queries, 0u);
  EXPECT_EQ(engine->stats().deadline_expired_queries, 0u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_expired_admission, 1u);
  EXPECT_EQ(stats.deadline_expired_queue, 0u);
  EXPECT_EQ(stats.requests_received, 1u);

  // The connection survives; a live-budget query still works.
  auto healthy = client.value().CallWithDeadline(FrameType::kQuery, kSumQuery,
                                                 /*deadline_ms=*/60'000);
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.value().status, StatusCode::kOk);
  EXPECT_EQ(engine->stats().queries, 1u);
  server.Shutdown();
}

TEST_F(DeadlineTest, MidQueueExpiryNeverReachesTheEngine) {
  // Only queries that must re-estimate a model reach the worker pool:
  // invalidate every model so both requests below queue there.
  EngineOptions engine_options;
  engine_options.reestimate_after_updates = 2;
  auto engine = MakeEngine(engine_options);
  Advance(*engine, 3);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());

  ServerOptions options;
  options.worker_threads = 1;
  options.worker_test_hook = [released] { released.wait(); };
  F2dbServer server(*engine, options);
  ASSERT_TRUE(server.Start().ok());

  // Request A (no deadline) occupies the only worker, blocked in the hook.
  Result<WireResponse> outcome_a = Status::Internal("unset");
  std::thread thread_a([&] {
    auto client = F2dbClient::Connect(kHost, server.port());
    ASSERT_TRUE(client.ok());
    outcome_a = client.value().Query(kSumQuery);
  });
  // The waits' verdicts are asserted only after the hook is released and
  // the client threads joined: a failed ASSERT returning past a joinable
  // std::thread would terminate the binary instead of reporting.
  const bool a_in_flight = WaitForInFlight(server, 1);

  // Request B carries a 100ms budget and queues behind A.
  Result<WireResponse> outcome_b = Status::Internal("unset");
  std::thread thread_b;
  bool b_in_flight = false;
  if (a_in_flight) {
    thread_b = std::thread([&] {
      auto client = F2dbClient::Connect(kHost, server.port());
      ASSERT_TRUE(client.ok());
      outcome_b = client.value().CallWithDeadline(
          FrameType::kQuery, kSumQuery, /*deadline_ms=*/100);
    });
    b_in_flight = WaitForInFlight(server, 2);
    // Let B's budget expire while it sits in the queue, then release A.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  release.set_value();
  thread_a.join();
  if (thread_b.joinable()) thread_b.join();
  ASSERT_TRUE(a_in_flight);
  ASSERT_TRUE(b_in_flight);

  ASSERT_TRUE(outcome_a.ok()) << outcome_a.status().message();
  EXPECT_EQ(outcome_a.value().status, StatusCode::kOk);
  ASSERT_TRUE(outcome_b.ok()) << outcome_b.status().message();
  EXPECT_EQ(outcome_b.value().status, StatusCode::kDeadlineExceeded);
  EXPECT_NE(outcome_b.value().body.find("while queued"), std::string::npos);

  // Only A executed: the worker answered B's expiry without touching the
  // engine.
  EXPECT_EQ(engine->stats().queries, 1u);
  EXPECT_EQ(engine->stats().deadline_expired_queries, 0u);
  EXPECT_EQ(server.stats().deadline_expired_queue, 1u);
  server.Shutdown();
}

TEST_F(DeadlineTest, TimeoutDerivedDeadlineRoundTrips) {
  auto engine = MakeEngine();
  F2dbServer server(*engine);
  ASSERT_TRUE(server.Start().ok());

  // A client with a per-call timeout stamps it as the wire deadline; a
  // healthy server answers well inside the budget.
  ClientOptions options;
  options.request_timeout_seconds = 30.0;
  auto client = F2dbClient::Connect(kHost, server.port(), options);
  ASSERT_TRUE(client.ok());
  auto result = client.value().Query(kSumQuery);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result.value().status, StatusCode::kOk);
  EXPECT_EQ(result.value().degradation, DegradationLevel::kNone);

  // Opting out of propagation keeps the old v1 frames working.
  ClientOptions v1_options;
  v1_options.request_timeout_seconds = 30.0;
  v1_options.propagate_deadline = false;
  auto v1_client = F2dbClient::Connect(kHost, server.port(), v1_options);
  ASSERT_TRUE(v1_client.ok());
  auto v1_result = v1_client.value().Query(kSumQuery);
  ASSERT_TRUE(v1_result.ok());
  EXPECT_EQ(v1_result.value().status, StatusCode::kOk);
  EXPECT_EQ(server.stats().deadline_expired_admission, 0u);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Per-tenant quotas over the wire.

TEST_F(RateLimitWireTest, TenantOverBurstIsThrottledWithRetryAfter) {
  auto engine = MakeEngine();
  ServerOptions options;
  // A near-zero refill rate makes the outcome deterministic: exactly the
  // burst conforms, everything after is throttled.
  options.tenant_rate_limit_per_second = 0.001;
  options.tenant_rate_burst = 2.0;
  F2dbServer server(*engine, options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions alice_options;
  alice_options.tenant_id = "alice";
  auto alice = F2dbClient::Connect(kHost, server.port(), alice_options);
  ASSERT_TRUE(alice.ok()) << alice.status().message();

  for (int i = 0; i < 2; ++i) {
    auto ok = alice.value().Query(kSumQuery);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().status, StatusCode::kOk) << ok.value().body;
  }
  auto throttled = alice.value().Query(kSumQuery);
  ASSERT_TRUE(throttled.ok());
  EXPECT_EQ(throttled.value().status, StatusCode::kResourceExhausted);
  EXPECT_NE(throttled.value().body.find("alice"), std::string::npos);
  const auto hint = ParseRetryAfterMs(throttled.value().body);
  ASSERT_TRUE(hint.has_value()) << throttled.value().body;
  EXPECT_GE(*hint, 1u);
  EXPECT_GE(server.stats().requests_throttled, 1u);

  // Tenant isolation: bob's bucket is untouched by alice's flood.
  ClientOptions bob_options;
  bob_options.tenant_id = "bob";
  auto bob = F2dbClient::Connect(kHost, server.port(), bob_options);
  ASSERT_TRUE(bob.ok());
  auto bob_ok = bob.value().Query(kSumQuery);
  ASSERT_TRUE(bob_ok.ok());
  EXPECT_EQ(bob_ok.value().status, StatusCode::kOk);

  // Monitoring stays exempt: a throttled tenant can still PING and STATS.
  auto pong = alice.value().Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().body, "PONG");
  auto stats = alice.value().Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().status, StatusCode::kOk);
  EXPECT_NE(stats.value().body.find("f2db_server_requests_throttled_total"),
            std::string::npos);
  server.Shutdown();
}

TEST_F(RateLimitWireTest, HelloEchoesTheBoundTenant) {
  auto engine = MakeEngine();
  F2dbServer server(*engine);
  ASSERT_TRUE(server.Start().ok());
  auto client = F2dbClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  auto hello = client.value().Hello("analytics-team");
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello.value().status, StatusCode::kOk);
  EXPECT_EQ(hello.value().body, "HELLO tenant=analytics-team");

  // The empty tenant id is the shared default, spelled out explicitly.
  auto anonymous = client.value().Hello("");
  ASSERT_TRUE(anonymous.ok());
  EXPECT_EQ(anonymous.value().body, "HELLO tenant=(default)");

  // An oversized tenant id is a protocol error, not a silent truncation.
  auto oversized =
      client.value().Hello(std::string(kMaxTenantIdBytes + 1, 't'));
  ASSERT_TRUE(oversized.ok());
  EXPECT_EQ(oversized.value().status, StatusCode::kInvalidArgument);
  server.Shutdown();
}

TEST_F(RateLimitWireTest, CallWithReconnectSleepsOutTheRetryAfterHint) {
  auto engine = MakeEngine();
  ServerOptions options;
  options.tenant_rate_limit_per_second = 50.0;  // a token every 20ms
  options.tenant_rate_burst = 1.0;
  F2dbServer server(*engine, options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions client_options;
  client_options.tenant_id = "carol";
  client_options.max_reconnect_attempts = 5;
  client_options.max_retry_after_seconds = 1.0;
  auto client = F2dbClient::Connect(kHost, server.port(), client_options);
  ASSERT_TRUE(client.ok());

  // Drain the burst, then let the retry loop absorb the throttle: it
  // sleeps the hinted ~20ms and lands a conforming retry.
  auto first = client.value().Query(kSumQuery);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().status, StatusCode::kOk);
  auto retried =
      client.value().CallWithReconnect(FrameType::kQuery, kSumQuery);
  ASSERT_TRUE(retried.ok()) << retried.status().message();
  EXPECT_EQ(retried.value().status, StatusCode::kOk) << retried.value().body;
  EXPECT_GE(server.stats().requests_throttled, 1u);
  // The throttle was handled on the live connection — no reconnects.
  EXPECT_EQ(client.value().reconnects_attempted(), 0u);
  server.Shutdown();
}

}  // namespace
}  // namespace f2db
