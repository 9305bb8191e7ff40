// End-to-end serving-layer tests over real loopback sockets.
//
// Every test starts an F2dbServer on an ephemeral 127.0.0.1 port and talks
// to it through the blocking client library — the full path a remote
// client exercises: TCP, framing, admission control, worker dispatch,
// snapshot-pinned query execution, and response flushing. Covered:
//   - QUERY / INSERT / STATS / PING round trips;
//   - DegradationLevel annotations propagating over the wire (failpoint-
//     forced refit failures -> STALE_MODEL in the response header byte);
//   - admission-control load shedding answering kUnavailable while the
//     worker pool is saturated;
//   - graceful drain on SIGTERM: in-flight responses still delivered, new
//     work refused, sockets closed afterwards;
//   - routing: forecasts that need no model fit are answered on the
//     reactor, refit-bound ones hop to a worker exactly once;
//   - protocol hardening: oversized frames answered-with-error and closed;
//   - the STATS exposition of an embedded and of a sharded server passes a
//     Prometheus text-format lint.

#include <gtest/gtest.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <future>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/advisor_builder.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "server/client.h"
#include "server/server.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

constexpr char kHost[] = "127.0.0.1";
constexpr char kSumQuery[] =
    "SELECT time, SUM(sales) FROM facts GROUP BY time AS OF now() + '3'";

/// Lints one Prometheus text exposition and returns its families in order.
/// Every family has exactly one `# HELP`, then exactly one `# TYPE`, then
/// at least one sample; every counter family ends in `_total`; every sample
/// line names the family being rendered and carries a number.
std::vector<std::string> LintExposition(const std::string& text) {
  std::vector<std::string> families;
  std::set<std::string> seen;
  std::string family;
  bool typed = false;
  std::size_t samples = 0;
  const auto close_family = [&] {
    if (!family.empty()) {
      EXPECT_GT(samples, 0u) << family << " has no sample";
    }
  };
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    SCOPED_TRACE(line);
    if (line.rfind("# HELP ", 0) == 0) {
      close_family();
      const std::string rest = line.substr(7);
      family = rest.substr(0, rest.find(' '));
      EXPECT_TRUE(seen.insert(family).second) << "second HELP for " << family;
      families.push_back(family);
      typed = false;
      samples = 0;
    } else if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name;
      std::string type;
      fields >> name >> type;
      EXPECT_EQ(name, family) << "TYPE without its HELP";
      EXPECT_FALSE(typed) << "second TYPE for " << family;
      typed = true;
      EXPECT_TRUE(type == "counter" || type == "gauge") << type;
      if (type == "counter") {
        EXPECT_TRUE(name.size() > 6 &&
                    name.compare(name.size() - 6, 6, "_total") == 0)
            << "counter " << name << " does not end in _total";
      }
    } else {
      EXPECT_TRUE(typed) << "sample before its family's HELP and TYPE";
      EXPECT_EQ(line.substr(0, line.find_first_of("{ ")), family)
          << "sample outside the family being rendered";
      const std::string value = line.substr(line.rfind(' ') + 1);
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      EXPECT_TRUE(!value.empty() && *end == '\0') << "value " << value;
      ++samples;
    }
  }
  close_family();
  return families;
}

/// Fetches STATS over the wire from a server over `engine` and lints it:
/// the text is the engine half followed by the server half, and no family
/// appears in both.
void ExpectStatsExpositionLintsClean(EngineInterface& engine) {
  F2dbServer server(engine);
  ASSERT_TRUE(server.Start().ok());
  auto client = F2dbClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok()) << client.status().message();
  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  ASSERT_EQ(stats.value().status, StatusCode::kOk);
  const std::vector<std::string> families = LintExposition(stats.value().body);

  const std::vector<std::string> engine_half =
      LintExposition(engine.StatsPrometheusText());
  const std::vector<std::string> server_half =
      LintExposition(server.stats().ToPrometheusText());
  const std::set<std::string> engine_names(engine_half.begin(),
                                           engine_half.end());
  for (const std::string& name : server_half) {
    EXPECT_EQ(engine_names.count(name), 0u) << name << " is in both halves";
  }
  std::vector<std::string> both = engine_half;
  both.insert(both.end(), server_half.begin(), server_half.end());
  EXPECT_EQ(families, both);
  server.Shutdown();
}

class ServerIntegrationTest : public ::testing::Test {
 protected:
  ServerIntegrationTest()
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

  void SetUp() override { failpoint::DisableAll(); }
  void TearDown() override { failpoint::DisableAll(); }

  /// A loaded engine; models invalidate after two incremental updates so
  /// the degradation tests can force lazy refits.
  std::unique_ptr<F2dbEngine> MakeEngine(EngineOptions options = {}) {
    if (options.reestimate_after_updates == 0) {
      options.reestimate_after_updates = 2;
    }
    auto engine = std::make_unique<F2dbEngine>(
        testing::MakeFigure2Cube(60, 0.05), options);
    EXPECT_TRUE(engine->LoadConfiguration(config_, evaluator_).ok());
    return engine;
  }

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

  /// Polls until the event loop has exited (5s bound).
  static bool WaitForStopped(const F2dbServer& server) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (!server.running()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  ModelConfiguration config_;
};

TEST_F(ServerIntegrationTest, PingQueryInsertStatsRoundTrip) {
  auto engine = MakeEngine();
  F2dbServer server(*engine);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client = F2dbClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok()) << client.status().message();

  // PING: liveness, loop-thread inline.
  auto pong = client.value().Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().message();
  EXPECT_EQ(pong.value().type, FrameType::kPing);
  EXPECT_EQ(pong.value().status, StatusCode::kOk);
  EXPECT_EQ(pong.value().body, "PONG");

  // QUERY: full-fidelity forecast with row text.
  auto result = client.value().Query(kSumQuery);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result.value().type, FrameType::kQuery);
  EXPECT_EQ(result.value().status, StatusCode::kOk);
  EXPECT_EQ(result.value().degradation, DegradationLevel::kNone);
  EXPECT_NE(result.value().body.find("-- node:"), std::string::npos);

  // EXPLAIN rides the QUERY frame.
  auto plan = client.value().Query(std::string("EXPLAIN ") + kSumQuery);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().status, StatusCode::kOk);
  EXPECT_NE(plan.value().body.find("Forecast Query Plan"), std::string::npos);

  // INSERT: one full period over the wire advances the cube's frontier.
  const std::int64_t t =
      engine->snapshot()->graph->series(engine->graph().base_nodes()[0])
          .end_time();
  const std::size_t advances_before = engine->stats().time_advances;
  for (const char* city : {"C1", "C2", "C3", "C4"}) {
    for (const char* product : {"P1", "P2"}) {
      auto inserted = client.value().Insert(
          std::string("INSERT INTO facts VALUES ('") + city + "', '" +
          product + "', " + std::to_string(t) + ", 12.5)");
      ASSERT_TRUE(inserted.ok()) << inserted.status().message();
      EXPECT_EQ(inserted.value().status, StatusCode::kOk)
          << inserted.value().body;
      EXPECT_NE(inserted.value().body.find("INSERT ok"), std::string::npos);
    }
  }
  EXPECT_EQ(engine->stats().inserts, 8u);
  EXPECT_EQ(engine->stats().time_advances, advances_before + 1);

  // STATS: combined engine + server Prometheus exposition.
  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().status, StatusCode::kOk);
  EXPECT_NE(stats.value().body.find("f2db_queries_total"), std::string::npos);
  EXPECT_NE(stats.value().body.find("f2db_inserts_total 8"),
            std::string::npos);
  EXPECT_NE(stats.value().body.find("f2db_server_requests_total"),
            std::string::npos);
  EXPECT_NE(stats.value().body.find("f2db_server_inflight_requests"),
            std::string::npos);

  server.Shutdown();
  EXPECT_FALSE(server.running());
}

TEST_F(ServerIntegrationTest, StatementErrorsComeBackAsStatusCodes) {
  auto engine = MakeEngine();
  F2dbServer server(*engine);
  ASSERT_TRUE(server.Start().ok());
  auto client = F2dbClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  // Unparsable SQL -> kInvalidArgument with the parser's message.
  auto bad = client.value().Query("SELECT nonsense");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().status, StatusCode::kInvalidArgument);
  EXPECT_FALSE(bad.value().body.empty());

  // Statement kind / frame type mismatches are refused, both directions.
  auto insert_in_query = client.value().Query(
      "INSERT INTO facts VALUES ('C1', 'P1', 60, 12.5)");
  ASSERT_TRUE(insert_in_query.ok());
  EXPECT_EQ(insert_in_query.value().status, StatusCode::kInvalidArgument);
  auto query_in_insert = client.value().Insert(kSumQuery);
  ASSERT_TRUE(query_in_insert.ok());
  EXPECT_EQ(query_in_insert.value().status, StatusCode::kInvalidArgument);

  // Unknown filter level -> engine resolution error, still a clean status.
  auto unknown = client.value().Query(
      "SELECT time, sales FROM facts WHERE galaxy = 'M31' AS OF now() + '1'");
  ASSERT_TRUE(unknown.ok());
  EXPECT_NE(unknown.value().status, StatusCode::kOk);
  // The connection survives application-level errors.
  auto pong = client.value().Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().body, "PONG");
}

TEST_F(ServerIntegrationTest, DegradedAnnotationsPropagateOverTheWire) {
  auto engine = MakeEngine();
  Advance(*engine, 3);  // invalidate every model
  F2dbServer server(*engine);
  ASSERT_TRUE(server.Start().ok());
  auto client = F2dbClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());
  auto degraded = client.value().Query(kSumQuery);
  ASSERT_TRUE(degraded.ok()) << degraded.status().message();
  EXPECT_EQ(degraded.value().status, StatusCode::kOk);
  EXPECT_EQ(degraded.value().degradation, DegradationLevel::kStaleModel);
  EXPECT_NE(degraded.value().body.find("-- degraded: STALE_MODEL"),
            std::string::npos);
  failpoint::DisableAll();

  // Full fidelity resumes once the fault clears (fresh refit publishes).
  auto healthy = client.value().Query(kSumQuery);
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.value().status, StatusCode::kOk);
  EXPECT_EQ(healthy.value().degradation, DegradationLevel::kNone);

  // The degradation counters crossed the wire too.
  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().body.find("f2db_refit_failures_total"),
            std::string::npos);
}

TEST_F(ServerIntegrationTest, AdmissionControlShedsWithUnavailable) {
  auto engine = MakeEngine();
  // Invalidate every model: the queries below must refit, so they queue
  // on the worker pool instead of being answered on the reactor.
  Advance(*engine, 3);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());

  ServerOptions options;
  options.worker_threads = 1;
  options.admission_queue_limit = 2;
  options.worker_test_hook = [released] { released.wait(); };
  F2dbServer server(*engine, options);
  ASSERT_TRUE(server.Start().ok());

  // Two requests saturate the watermark: one running (blocked in the
  // hook), one queued.
  std::vector<std::thread> blocked;
  std::vector<Result<WireResponse>> outcomes(2, Status::Internal("unset"));
  for (int i = 0; i < 2; ++i) {
    blocked.emplace_back([&, i] {
      auto client = F2dbClient::Connect(kHost, server.port());
      ASSERT_TRUE(client.ok());
      outcomes[i] = client.value().Query(kSumQuery);
    });
    // Released and joined before asserting: a failed ASSERT returning past
    // a joinable std::thread would terminate instead of reporting.
    const bool in_flight =
        WaitForInFlight(server, static_cast<std::size_t>(i + 1));
    if (!in_flight) {
      release.set_value();
      for (auto& t : blocked) t.join();
    }
    ASSERT_TRUE(in_flight);
  }

  // The next request is shed immediately with kUnavailable.
  auto shed_client = F2dbClient::Connect(kHost, server.port());
  ASSERT_TRUE(shed_client.ok());
  auto shed = shed_client.value().Query(kSumQuery);
  ASSERT_TRUE(shed.ok()) << shed.status().message();
  EXPECT_EQ(shed.value().status, StatusCode::kUnavailable);
  EXPECT_NE(shed.value().body.find("overloaded"), std::string::npos);
  EXPECT_GE(server.stats().requests_shed, 1u);

  // PING bypasses admission: liveness stays observable under overload.
  auto pong = shed_client.value().Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().body, "PONG");

  // Release the workers; the two admitted requests complete at full
  // fidelity.
  release.set_value();
  for (auto& t : blocked) t.join();
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_EQ(outcome.value().status, StatusCode::kOk);
  }
  server.Shutdown();
}

TEST_F(ServerIntegrationTest, SigtermDrainsInFlightThenCloses) {
  auto engine = MakeEngine();
  Advance(*engine, 3);  // the query below must refit, on a worker
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());

  ServerOptions options;
  options.worker_threads = 1;
  options.worker_test_hook = [released] { released.wait(); };
  F2dbServer server(*engine, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(F2dbServer::InstallSigtermShutdown(&server).ok());

  // One request in flight, blocked inside the worker.
  Result<WireResponse> in_flight_outcome = Status::Internal("unset");
  std::thread in_flight([&] {
    auto client = F2dbClient::Connect(kHost, server.port());
    ASSERT_TRUE(client.ok());
    in_flight_outcome = client.value().Query(kSumQuery);
  });
  // Released and joined before asserting: a failed ASSERT returning past a
  // joinable std::thread would terminate instead of reporting.
  const bool running = WaitForInFlight(server, 1);
  if (!running) {
    release.set_value();
    in_flight.join();
  }
  ASSERT_TRUE(running);

  // SIGTERM starts the drain (the deployed shutdown path).
  ASSERT_EQ(::raise(SIGTERM), 0);

  // New work is refused while draining, with kUnavailable.
  auto late_client = F2dbClient::Connect(kHost, server.port());
  if (late_client.ok()) {
    auto late = late_client.value().Query(kSumQuery);
    if (late.ok()) {
      EXPECT_EQ(late.value().status, StatusCode::kUnavailable);
      EXPECT_NE(late.value().body.find("shutting down"), std::string::npos);
    }
  }

  // Unblock the worker: the in-flight response is still delivered.
  release.set_value();
  in_flight.join();
  ASSERT_TRUE(in_flight_outcome.ok()) << in_flight_outcome.status().message();
  EXPECT_EQ(in_flight_outcome.value().status, StatusCode::kOk);

  // The loop exits once drained; afterwards new connections are refused.
  EXPECT_TRUE(WaitForStopped(server));
  auto refused = F2dbClient::Connect(kHost, server.port());
  EXPECT_FALSE(refused.ok());

  server.Shutdown();
  ASSERT_TRUE(F2dbServer::InstallSigtermShutdown(nullptr).ok());
}

TEST_F(ServerIntegrationTest, OversizedFrameAnsweredThenConnectionClosed) {
  auto engine = MakeEngine();
  ServerOptions options;
  options.max_frame_bytes = 1024;
  F2dbServer server(*engine, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = F2dbClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  // A 4 KiB statement exceeds the server's 1 KiB frame cap: the server
  // answers with a protocol error and closes the stream.
  auto oversized = client.value().Query(std::string(4096, 'x'));
  ASSERT_TRUE(oversized.ok()) << oversized.status().message();
  EXPECT_EQ(oversized.value().status, StatusCode::kInvalidArgument);
  EXPECT_NE(oversized.value().body.find("exceeds"), std::string::npos);
  EXPECT_GE(server.stats().protocol_errors, 1u);

  // The stream is gone: the next call fails at the transport level.
  auto after = client.value().Ping();
  EXPECT_FALSE(after.ok());
}

TEST_F(ServerIntegrationTest, ManyConcurrentConnectionsAllServed) {
  auto engine = MakeEngine();
  ServerOptions options;
  options.worker_threads = 4;
  F2dbServer server(*engine, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kQueriesEach = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = F2dbClient::Connect(kHost, server.port());
      ASSERT_TRUE(client.ok());
      for (int q = 0; q < kQueriesEach; ++q) {
        auto result = client.value().Query(kSumQuery);
        if (result.ok() && result.value().status == StatusCode::kOk) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kQueriesEach);
  EXPECT_GE(engine->stats().queries, static_cast<std::size_t>(ok_count));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_received, static_cast<std::size_t>(ok_count));
  EXPECT_EQ(stats.responses_sent, stats.requests_received);
  EXPECT_EQ(stats.connections_accepted, static_cast<std::size_t>(kClients));
  server.Shutdown();
}

TEST_F(ServerIntegrationTest, StartIsSingleShotAndPortIsEphemeral) {
  auto engine = MakeEngine();
  F2dbServer server(*engine);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(server.port(), 0);
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Routing: a forecast that needs no model fit is answered on the reactor;
// only one that must re-estimate a model first hops to the worker pool,
// where worker_test_hook fires.

/// The statement a client sends for `node`, with `horizon` spliced in
/// verbatim (a quoted literal, or `?` for PREPARE).
std::string NodeStatement(const TimeSeriesGraph& graph, NodeId node,
                          const std::string& horizon) {
  std::string sql = "SELECT time, sales FROM facts";
  const NodeAddress address = graph.AddressOf(node);
  const char* joiner = " WHERE ";
  for (std::size_t d = 0; d < address.coords.size(); ++d) {
    const Hierarchy& h = graph.schema().hierarchy(d);
    const auto& c = address.coords[d];
    if (c.level >= h.num_levels()) continue;  // ALL
    sql += joiner;
    sql += h.level_name(c.level) + " = '" + h.value_name(c.level, c.value) +
           "'";
    joiner = " AND ";
  }
  return sql + " AS OF now() + " + horizon;
}

/// A node whose stored scheme is one model, or num_nodes() if none is: a
/// refit-bound forecast of it re-estimates exactly that model.
NodeId SingleSourceNode(const F2dbEngine& engine) {
  const SnapshotPtr snap = engine.snapshot();
  for (NodeId node = 0; node < snap->graph->num_nodes(); ++node) {
    const std::vector<NodeId>& sources = snap->schemes[node];
    if (sources.size() == 1 && snap->models.Find(sources[0])) return node;
  }
  return snap->graph->num_nodes();
}

/// The body the server must send for `sql`, rendered in process.
std::string InProcessBody(const EngineInterface& engine,
                          const std::string& sql) {
  auto query = ParseForecastQuery(sql);
  EXPECT_TRUE(query.ok()) << query.status().message();
  if (!query.ok()) return "";
  auto result = engine.Execute(query.value());
  EXPECT_TRUE(result.ok()) << result.status().message();
  std::string body;
  if (result.ok()) RenderQueryResultInto(result.value(), &body);
  return body;
}

TEST_F(ServerIntegrationTest, QueryOnValidModelsIsAnsweredOnTheReactor) {
  auto engine = MakeEngine();
  std::atomic<int> hops{0};
  ServerOptions options;
  options.worker_test_hook = [&hops] { hops.fetch_add(1); };
  F2dbServer server(*engine, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = F2dbClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  const std::string want = InProcessBody(*engine, kSumQuery);
  const std::size_t queries_before = engine->stats().queries;
  for (int i = 0; i < 5; ++i) {
    auto result = client.value().Query(kSumQuery);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result.value().status, StatusCode::kOk);
    EXPECT_EQ(result.value().body, want);
    EXPECT_EQ(server.stats().in_flight_requests, 0u);
  }
  EXPECT_EQ(hops.load(), 0);
  EXPECT_EQ(engine->stats().queries, queries_before + 5);
  server.Shutdown();
}

TEST_F(ServerIntegrationTest, RefitBoundQueryAndExecuteEachHopOnce) {
  auto engine = MakeEngine();
  const NodeId node = SingleSourceNode(*engine);
  ASSERT_LT(node, engine->graph().num_nodes());
  const NodeId source = engine->snapshot()->schemes[node][0];
  const std::string sql = NodeStatement(engine->graph(), node, "'2'");

  std::atomic<int> hops{0};
  ServerOptions options;
  options.worker_test_hook = [&hops] { hops.fetch_add(1); };
  F2dbServer server(*engine, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = F2dbClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  auto prepared =
      client.value().Prepare(NodeStatement(engine->graph(), node, "?"));
  ASSERT_TRUE(prepared.ok()) << prepared.status().message();

  for (const bool execute : {false, true}) {
    SCOPED_TRACE(execute ? "EXECUTE" : "QUERY");
    Advance(*engine, 3);  // the node's one model is invalid again
    ASSERT_TRUE(engine->snapshot()->models.Find(source).record->invalid);
    const auto send = [&] {
      return execute ? client.value().ExecutePrepared(
                           prepared.value().stmt_id, {"2"})
                     : client.value().Query(sql);
    };
    const int hops_before = hops.load();
    const EngineStats before = engine->stats();
    auto refit = send();
    ASSERT_TRUE(refit.ok()) << refit.status().message();
    EXPECT_EQ(refit.value().status, StatusCode::kOk) << refit.value().body;
    EXPECT_EQ(refit.value().degradation, DegradationLevel::kNone);
    EXPECT_EQ(hops.load(), hops_before + 1);
    // The declined attempt on the reactor counted nothing.
    const EngineStats after = engine->stats();
    EXPECT_EQ(after.queries, before.queries + 1);
    EXPECT_EQ(after.reestimates, before.reestimates + 1);

    // The refit was installed: the same request is now answered on the
    // reactor, byte for byte.
    auto repeat = send();
    ASSERT_TRUE(repeat.ok()) << repeat.status().message();
    EXPECT_EQ(repeat.value().body, refit.value().body);
    EXPECT_EQ(hops.load(), hops_before + 1);
    EXPECT_EQ(engine->stats().reestimates, after.reestimates);
  }
  server.Shutdown();
}

TEST_F(ServerIntegrationTest, BrownoutQueryOnInvalidModelsIsServedInlineStale) {
  auto engine = MakeEngine();
  Advance(*engine, 3);  // invalidate every model
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  ServerOptions options;
  options.worker_threads = 1;
  options.brownout_watermark = 1;
  options.worker_test_hook = [released] { released.wait(); };
  F2dbServer server(*engine, options);
  ASSERT_TRUE(server.Start().ok());

  // A STATS request holds the only worker, putting the server at its
  // brownout watermark.
  Result<WireResponse> stats_outcome = Status::Internal("unset");
  std::thread holder([&] {
    auto client = F2dbClient::Connect(kHost, server.port());
    ASSERT_TRUE(client.ok());
    stats_outcome = client.value().Stats();
  });
  // Asserted after the release and join below: a failed ASSERT returning
  // past a joinable std::thread would terminate instead of reporting.
  const bool holding = WaitForInFlight(server, 1);

  // Under brownout the query skips its refits and is answered on the
  // reactor from the stale models, although the worker is blocked (a
  // query that waited for the worker would time out instead).
  ClientOptions client_options;
  client_options.request_timeout_seconds = 5.0;
  auto client = F2dbClient::Connect(kHost, server.port(), client_options);
  const std::size_t reestimates_before = engine->stats().reestimates;
  Result<WireResponse> stale = Status::Internal("not connected");
  if (client.ok()) stale = client.value().Query(kSumQuery);
  const EngineStats engine_stats = engine->stats();
  const ServerStats server_stats = server.stats();
  release.set_value();
  holder.join();

  ASSERT_TRUE(holding);
  ASSERT_TRUE(stale.ok()) << stale.status().message();
  EXPECT_EQ(stale.value().status, StatusCode::kOk);
  EXPECT_EQ(stale.value().degradation, DegradationLevel::kStaleModel);
  EXPECT_NE(stale.value().body.find("-- degraded: STALE_MODEL"),
            std::string::npos);
  EXPECT_EQ(server_stats.brownout_queries, 1u);
  EXPECT_EQ(engine_stats.reestimates, reestimates_before);
  EXPECT_GT(engine_stats.brownout_refits_skipped, 0u);
  ASSERT_TRUE(stats_outcome.ok()) << stats_outcome.status().message();
  EXPECT_EQ(stats_outcome.value().status, StatusCode::kOk);
  server.Shutdown();
}

TEST_F(ServerIntegrationTest, CrossShardQueryMatchesInProcessByteForByte) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60, 0.05);
  ModelSpec spec;
  spec.type = ModelType::kSes;
  spec.period = 1;
  auto config = BuildShardableConfiguration(graph, spec, 1.0);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  // The first shard count that splits the four cities.
  std::unique_ptr<ShardedEngine> sharded;
  for (std::size_t m = 2; m <= 8 && sharded == nullptr; ++m) {
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = m;
    sharded_options.engine.maintenance_threads = 1;
    auto opened = ShardedEngine::Open(graph, sharded_options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    if (opened.value()->num_active_shards() > 1) {
      sharded = std::move(opened).value();
    }
  }
  ASSERT_NE(sharded, nullptr);
  ASSERT_TRUE(sharded->LoadConfiguration(config.value(), 1.0).ok());

  std::atomic<int> hops{0};
  ServerOptions options;
  options.worker_test_hook = [&hops] { hops.fetch_add(1); };
  F2dbServer server(*sharded, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = F2dbClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());

  // A scatter-gather is declined before fan-out and runs once on a
  // worker: every shard counts it exactly once.
  const std::string want = InProcessBody(*sharded, kSumQuery);
  const std::size_t queries_before = sharded->stats().queries;
  auto got = client.value().Query(kSumQuery);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.value().status, StatusCode::kOk);
  EXPECT_EQ(got.value().body, want);
  EXPECT_EQ(hops.load(), 1);
  EXPECT_EQ(sharded->stats().queries,
            queries_before + sharded->num_active_shards());

  // A single-partition query runs on its shard, on the reactor.
  const std::string city_query =
      "SELECT time, sales FROM facts WHERE city = 'C1' AS OF now() + '3'";
  const std::string city_want = InProcessBody(*sharded, city_query);
  auto city = client.value().Query(city_query);
  ASSERT_TRUE(city.ok()) << city.status().message();
  EXPECT_EQ(city.value().status, StatusCode::kOk);
  EXPECT_EQ(city.value().body, city_want);
  EXPECT_EQ(hops.load(), 1);
  server.Shutdown();
}

TEST_F(ServerIntegrationTest, StatsExpositionLintsCleanEmbeddedAndSharded) {
  {
    SCOPED_TRACE("embedded");
    auto engine = MakeEngine();
    ASSERT_TRUE(engine->ExecuteSql(kSumQuery).ok());
    ExpectStatsExpositionLintsClean(*engine);
  }
  SCOPED_TRACE("sharded");
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60, 0.05);
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.engine.maintenance_threads = 1;
  auto sharded = ShardedEngine::Open(graph, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_GT(sharded.value()->num_active_shards(), 1u);
  ExpectStatsExpositionLintsClean(*sharded.value());
}

}  // namespace
}  // namespace f2db
