#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "engine/stats_export.h"

namespace f2db {
namespace {

/// SIGTERM routing target (see InstallSigtermShutdown). Lock-free atomic:
/// safe to read from the handler.
std::atomic<F2dbServer*> g_sigterm_server{nullptr};

void SigtermHandler(int /*signo*/) {
  if (F2dbServer* server = g_sigterm_server.load(std::memory_order_relaxed)) {
    server->RequestShutdown();
  }
}

WireResponse ErrorResponse(FrameType type, const Status& status) {
  WireResponse response;
  response.type = type;
  response.status = status.code();
  response.body = status.message();
  return response;
}

}  // namespace

void AppendForecastResponseFrame(FrameType type, const QueryResult& result,
                                 std::string* out) {
  const std::size_t start = out->size();
  out->append(4, '\0');  // length prefix, patched once the body is known
  out->push_back(static_cast<char>(type));
  out->push_back(static_cast<char>(StatusCode::kOk));
  out->push_back(static_cast<char>(result.degradation));
  RenderQueryResultInto(result, out);
  const auto payload = static_cast<std::uint32_t>(out->size() - start - 4);
  (*out)[start] = static_cast<char>(payload & 0xff);
  (*out)[start + 1] = static_cast<char>((payload >> 8) & 0xff);
  (*out)[start + 2] = static_cast<char>((payload >> 16) & 0xff);
  (*out)[start + 3] = static_cast<char>((payload >> 24) & 0xff);
}

constexpr MetricRow kServerRows[] = {F2DB_SERVER_METRICS(
    F2DB_METRIC_DESC_METRIC, F2DB_METRIC_DESC_FAMILY, F2DB_METRIC_DESC_SAMPLE)};

std::string ServerStats::ToPrometheusText() const {
  const ServerStats& s = *this;
  return RenderMetrics(kServerRows, {},
                       std::vector<double>{F2DB_SERVER_METRICS(
                           F2DB_METRIC_VALUE_ROW, F2DB_METRIC_SWALLOW,
                           F2DB_METRIC_VALUE_ROW)},
                       true);
}

F2dbServer::F2dbServer(EngineInterface& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  if (options_.tenant_rate_limit_per_second > 0) {
    limiters_ = std::make_unique<TenantRateLimiters>(
        options_.tenant_rate_limit_per_second, options_.tenant_rate_burst);
  }
}

F2dbServer::~F2dbServer() {
  Shutdown();
  if (g_sigterm_server.load(std::memory_order_relaxed) == this) {
    g_sigterm_server.store(nullptr, std::memory_order_relaxed);
  }
}

Result<int> F2dbServer::CreateListener(bool* reuseport) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + ::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (reuseport != nullptr) {
#ifdef SO_REUSEPORT
    *reuseport = ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &enable,
                              sizeof(enable)) == 0;
#else
    *reuseport = false;
#endif
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // After the first bind, port_ carries the resolved port so every
  // SO_REUSEPORT sibling binds the same one.
  addr.sin_port = htons(port_ != 0 ? port_ : options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparsable listen host: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status =
        Status::Internal(std::string("bind(): ") + ::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) != 0) {
    const Status status =
        Status::Internal(std::string("listen(): ") + ::strerror(errno));
    ::close(fd);
    return status;
  }
  if (port_ == 0) {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
        0) {
      const Status status =
          Status::Internal(std::string("getsockname(): ") + ::strerror(errno));
      ::close(fd);
      return status;
    }
    port_ = ntohs(bound.sin_port);
  }
  return fd;
}

Status F2dbServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  const std::size_t num_reactors =
      options_.reactor_threads > 0 ? options_.reactor_threads : 1;

  reactors_.clear();
  reactors_.reserve(num_reactors);
  for (std::size_t i = 0; i < num_reactors; ++i) {
    auto reactor = std::make_unique<Reactor>(*this, i);
    const Status status = reactor->Init();
    if (!status.ok()) {
      reactors_.clear();
      return status;
    }
    reactors_.push_back(std::move(reactor));
  }

  // Listener topology: one SO_REUSEPORT listener per reactor when the
  // option is on and the kernel cooperates; otherwise reactor 0 runs the
  // only listener and hands accepted sockets off round-robin (the
  // fallback also covers single-reactor servers, where hand-off is moot).
  accept_handoff_ = !(options_.use_so_reuseport && num_reactors > 1);
  bool reuseport_ok = false;
  Result<int> first = CreateListener(
      accept_handoff_ ? nullptr : &reuseport_ok);
  if (!first.ok()) {
    reactors_.clear();
    port_ = 0;
    return first.status();
  }
  if (!accept_handoff_ && !reuseport_ok) {
    // The kernel refused SO_REUSEPORT: fall back to the hand-off path on
    // the socket we already bound.
    accept_handoff_ = true;
  }
  reactors_[0]->SetListenFd(first.value());
  if (!accept_handoff_) {
    for (std::size_t i = 1; i < num_reactors; ++i) {
      bool sibling_ok = false;
      Result<int> sibling = CreateListener(&sibling_ok);
      if (!sibling.ok() || !sibling_ok) {
        if (sibling.ok()) ::close(sibling.value());
        // A sibling failed to share the port: close ranks around the
        // already-bound reactor-0 listener and hand off instead.
        accept_handoff_ = true;
        break;
      }
      reactors_[i]->SetListenFd(sibling.value());
    }
  }

  pool_ = std::make_unique<ThreadPool>(
      options_.worker_threads > 0 ? options_.worker_threads : 1);
  started_ = true;
  shutdown_requested_.store(false, std::memory_order_release);
  for (auto& reactor : reactors_) {
    const Status status = reactor->Start();
    if (!status.ok()) {
      Shutdown();
      return status;
    }
  }
  return Status::OK();
}

bool F2dbServer::running() const {
  for (const auto& reactor : reactors_) {
    if (reactor->running()) return true;
  }
  return false;
}

void F2dbServer::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  for (const auto& reactor : reactors_) reactor->Wake();
}

void F2dbServer::Shutdown() {
  RequestShutdown();
  for (const auto& reactor : reactors_) reactor->Join();
  // The pool destructor drains queued tasks; connection objects must stay
  // alive until then (stragglers append to outboxes).
  pool_.reset();
  // All requests have drained: compact — every shard of a sharded engine
  // — so the next open bulk-loads the sealed history and replays only the
  // rewritten tail. Failure is non-fatal: the WAL alone still recovers
  // everything.
  if (started_ && engine_.durable()) {
    const Status compacted = engine_.CompactNow();
    if (!compacted.ok()) {
      F2DB_LOG(kWarning) << "shutdown compaction failed: "
                         << compacted.message();
    }
  }
  started_ = false;  // a repeated Shutdown (destructor) is a no-op
  reactors_.clear();  // destructors close epoll/wake/listen fds
  port_ = 0;
  num_connections_.store(0, std::memory_order_relaxed);
}

ServerStats F2dbServer::stats() const {
  ServerStats out;
  F2DB_SERVER_METRICS(F2DB_METRIC_COPY_ROW, F2DB_METRIC_SWALLOW,
                      F2DB_METRIC_COPY_ROW)
  out.requests_shed = out.requests_shed_admission + out.requests_shed_shutdown;
  return out;
}

std::string F2dbServer::StatsPrometheusText() const {
  return engine_.StatsPrometheusText() + stats().ToPrometheusText();
}

Status F2dbServer::InstallSigtermShutdown(F2dbServer* server) {
  g_sigterm_server.store(server, std::memory_order_relaxed);
  struct sigaction action {};
  action.sa_handler = server != nullptr ? SigtermHandler : SIG_DFL;
  sigemptyset(&action.sa_mask);
  if (::sigaction(SIGTERM, &action, nullptr) != 0) {
    return Status::Internal(std::string("sigaction(): ") + ::strerror(errno));
  }
  return Status::OK();
}

void F2dbServer::HandleRequest(Reactor& reactor,
                               const std::shared_ptr<ServerConnection>& conn,
                               const std::string& payload) {
  stats_.requests_received.Add();
  auto decoded = DecodeRequestPayload(payload);
  if (!decoded.ok()) {
    stats_.protocol_errors.Add();
    reactor.RespondNow(
        conn, EncodeResponse(ErrorResponse(FrameType::kPing, decoded.status())));
    return;
  }
  WireRequest request = std::move(decoded).value();

  // PING is answered inline on the reactor thread: it measures
  // serving-layer liveness, not worker availability.
  if (request.type == FrameType::kPing) {
    WireResponse pong;
    pong.type = FrameType::kPing;
    pong.body = "PONG";
    reactor.RespondNow(conn, EncodeResponse(pong));
    return;
  }

  // HELLO binds the connection's tenant identity (and its rate-limiter
  // bucket) inline on the reactor thread, which owns conn's tenant state.
  if (request.type == FrameType::kHello) {
    conn->tenant_id = request.body;
    conn->rate_limiter =
        limiters_ ? limiters_->BucketFor(conn->tenant_id) : nullptr;
    WireResponse hello;
    hello.type = FrameType::kHello;
    hello.body = "HELLO tenant=" +
                 (conn->tenant_id.empty() ? std::string("(default)")
                                          : conn->tenant_id);
    reactor.RespondNow(conn, EncodeResponse(hello));
    return;
  }

  if (shutdown_requested_.load(std::memory_order_acquire)) {
    stats_.requests_shed_shutdown.Add();
    reactor.RespondNow(
        conn, EncodeResponse(ErrorResponse(
                  request.type, Status::Unavailable("server shutting down"))));
    return;
  }

  // Deadline at admission: a frame whose budget is already gone is
  // answered without consuming a worker, a queue slot, or a rate token.
  const auto now = std::chrono::steady_clock::now();
  auto deadline = ForecastQuery::kNoDeadline;
  if (request.has_deadline) {
    deadline = now + std::chrono::milliseconds(request.deadline_ms);
    if (request.deadline_ms == 0) {
      stats_.deadline_expired_admission.Add();
      reactor.RespondNow(
          conn, EncodeResponse(ErrorResponse(
                    request.type, Status::DeadlineExceeded(
                                      "deadline expired before admission"))));
      return;
    }
  }

  // PREPARE / CLOSE_STMT mutate the connection's reactor-owned statement
  // table, so they run inline like HELLO — but behind the shutdown and
  // deadline gates above, so a draining server sheds them. As control
  // plane they are exempt from the per-tenant rate limit, like STATS.
  if (request.type == FrameType::kPrepare) {
    HandlePrepare(reactor, conn, request.body);
    return;
  }
  if (request.type == FrameType::kCloseStmt) {
    HandleCloseStmt(reactor, conn, request.body);
    return;
  }

  // Per-tenant quota, enforced AHEAD of the global watermark so one
  // flooding tenant is throttled before it can crowd out the others.
  // STATS stays exempt: monitoring must work during an overload.
  if (limiters_ && request.type != FrameType::kStats) {
    if (conn->rate_limiter == nullptr) {
      conn->rate_limiter = limiters_->BucketFor(conn->tenant_id);
    }
    std::uint64_t retry_after_ns = 0;
    if (!conn->rate_limiter->TryAcquire(&retry_after_ns)) {
      stats_.requests_throttled.Add();
      const std::uint32_t retry_ms = static_cast<std::uint32_t>(
          std::min<std::uint64_t>((retry_after_ns + 999'999) / 1'000'000,
                                  60'000));
      WireResponse throttled;
      throttled.type = request.type;
      throttled.status = StatusCode::kResourceExhausted;
      throttled.body = EncodeThrottleBody(
          std::max<std::uint32_t>(retry_ms, 1),
          "tenant '" + conn->tenant_id + "' over rate limit");
      reactor.RespondNow(conn, EncodeResponse(throttled));
      return;
    }
  }

  // Admission control: shed instead of queueing past the watermark. The
  // watermark is global — reactors share one worker pool.
  const std::size_t depth = in_flight_.load(std::memory_order_relaxed);
  if (depth >= options_.admission_queue_limit) {
    stats_.requests_shed_admission.Add();
    reactor.RespondNow(
        conn,
        EncodeResponse(ErrorResponse(
            request.type,
            Status::Unavailable("server overloaded: admission queue depth " +
                                std::to_string(depth) + " at limit " +
                                std::to_string(options_.admission_queue_limit)))));
    return;
  }

  // Brownout: between the brownout watermark and the admission limit,
  // queries are still served but forced down the degradation ladder (no
  // lazy re-estimation; the stale rung, annotated). Hysteresis at half
  // the watermark keeps the active flag from flapping.
  bool brownout = false;
  if (options_.brownout_watermark > 0) {
    if (depth >= options_.brownout_watermark) {
      brownout = true;
      stats_.brownout_queries.Add();
      if (!brownout_active_.exchange(true, std::memory_order_relaxed)) {
        stats_.brownout_episodes.Add();
      }
    } else if (depth < options_.brownout_watermark / 2) {
      brownout_active_.store(false, std::memory_order_relaxed);
    }
  }

  // Routing rule (DESIGN.md §14): QUERY and EXECUTE run on the reactor
  // unless answering needs a model fit. The engine's query layer is a
  // lock-free snapshot read, and the worker hand-off (a futex wake there,
  // an eventfd wake back) would be the bulk of a cheap forecast's latency.
  // Both walked the whole admission ladder above, so deadline, throttle,
  // shedding and brownout behave as for hopped work; being synchronous,
  // they never hold an in_flight_ slot across a loop iteration.
  if (request.type == FrameType::kExecute) {
    ExecutePreparedInline(reactor, conn, request.body, deadline, brownout);
    return;
  }
  if (request.type == FrameType::kQuery) {
    QueryInline(reactor, conn, request.body, deadline, brownout);
    return;
  }
  Hop(reactor, conn, request.type, deadline,
      [this, request = std::move(request)] {
        return EncodeResponse(ExecuteRequest(request));
      });
}

template <typename Work>
void F2dbServer::Hop(Reactor& reactor,
                     const std::shared_ptr<ServerConnection>& conn,
                     FrameType type,
                     std::chrono::steady_clock::time_point deadline,
                     Work work) {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  conn->BeginRequest();
  pool_->Post([this, &reactor, conn, type, deadline, work = std::move(work)] {
    if (options_.worker_test_hook) options_.worker_test_hook();
    std::string encoded;
    // Deadline at dequeue: work that expired while queued is answered
    // cheaply instead of executed uselessly.
    if (deadline != ForecastQuery::kNoDeadline &&
        std::chrono::steady_clock::now() >= deadline) {
      stats_.deadline_expired_queue.Add();
      encoded = EncodeResponse(ErrorResponse(
          type, Status::DeadlineExceeded("deadline expired while queued")));
    } else {
      encoded = work();
    }
    conn->EnqueueResponse(std::move(encoded));
    stats_.responses_sent.Add();
    reactor.NoteResponseReady(conn);
    conn->EndRequest();
    // Decrement AFTER the response is visible in the outbox, so the drain
    // check never sees zero in-flight with an unflushed response.
    in_flight_.fetch_sub(1, std::memory_order_release);
    reactor.Wake();
  });
}

WireResponse F2dbServer::ExecuteRequest(const WireRequest& request) const {
  WireResponse response;
  response.type = request.type;
  if (request.type == FrameType::kStats) {
    response.body = StatsPrometheusText();
    return response;
  }
  if (request.type == FrameType::kInsert) {
    auto parsed = ParseStatement(request.body);
    if (!parsed.ok()) return ErrorResponse(request.type, parsed.status());
    const Statement& statement = parsed.value();
    if (statement.kind != Statement::Kind::kInsert) {
      return ErrorResponse(request.type,
                           Status::InvalidArgument(
                               "INSERT frame requires an INSERT statement"));
    }
    const Status status = engine_.InsertFact(statement.insert.base_values,
                                             statement.insert.time,
                                             statement.insert.value);
    if (!status.ok()) return ErrorResponse(request.type, status);
    response.body = "INSERT ok (" + std::to_string(engine_.pending_inserts()) +
                    " buffered)";
    return response;
  }
  // Every other frame type is answered on the reactor thread.
  return ErrorResponse(request.type,
                       Status::Internal("unhandled frame type"));
}

void F2dbServer::HandlePrepare(Reactor& reactor,
                               const std::shared_ptr<ServerConnection>& conn,
                               const std::string& sql) {
  ServerConnection::PreparedState& st = conn->prepared();
  if (st.statements.size() >= options_.max_prepared_statements) {
    reactor.RespondNow(
        conn,
        EncodeResponse(ErrorResponse(
            FrameType::kPrepare,
            Status::ResourceExhausted(
                "connection already holds " +
                std::to_string(st.statements.size()) +
                " prepared statement(s), the limit; CLOSE_STMT one first"))));
    return;
  }
  // ParsePlan goes through the engine's plan cache, so PREPARE both
  // benefits from and warms the same entries raw QUERY traffic uses.
  auto plan_or = engine_.ParsePlan(sql);
  if (!plan_or.ok()) {
    reactor.RespondNow(conn, EncodeResponse(ErrorResponse(FrameType::kPrepare,
                                                          plan_or.status())));
    return;
  }
  const PlanPtr& plan = plan_or.value();
  if (plan->tmpl.statement.kind == Statement::Kind::kInsert) {
    reactor.RespondNow(
        conn, EncodeResponse(ErrorResponse(
                  FrameType::kPrepare,
                  Status::InvalidArgument("INSERT statements cannot be "
                                          "prepared; send INSERT frames"))));
    return;
  }
  const std::uint32_t id = st.next_stmt_id++;
  st.statements.emplace(id, plan);
  WireResponse ok;
  ok.type = FrameType::kPrepare;
  ok.body = EncodePrepareOkBody(id, plan->tmpl.slots.size());
  reactor.RespondNow(conn, EncodeResponse(ok));
}

void F2dbServer::HandleCloseStmt(Reactor& reactor,
                                 const std::shared_ptr<ServerConnection>& conn,
                                 const std::string& body) {
  auto id = ParseCloseStmtBody(body);
  if (!id.ok()) {
    stats_.protocol_errors.Add();
    reactor.RespondNow(conn, EncodeResponse(ErrorResponse(
                                 FrameType::kCloseStmt, id.status())));
    return;
  }
  // A double CLOSE_STMT (or a never-prepared id) answers kNotFound instead
  // of silently succeeding, so a client with confused id bookkeeping finds
  // out.
  if (conn->prepared().statements.erase(id.value()) == 0) {
    reactor.RespondNow(
        conn, EncodeResponse(ErrorResponse(
                  FrameType::kCloseStmt,
                  Status::NotFound("unknown statement id " +
                                   std::to_string(id.value()) +
                                   " (never prepared, or already closed)"))));
    return;
  }
  WireResponse ok;
  ok.type = FrameType::kCloseStmt;
  ok.body = "CLOSE_STMT ok";
  reactor.RespondNow(conn, EncodeResponse(ok));
}

void F2dbServer::ExecutePreparedInline(
    Reactor& reactor, const std::shared_ptr<ServerConnection>& conn,
    const std::string& body, std::chrono::steady_clock::time_point deadline,
    bool brownout) {
  ServerConnection::PreparedState& st = conn->prepared();
  const Status decoded = ParseExecuteBodyInto(body, &st.body_scratch);
  if (!decoded.ok()) {
    stats_.protocol_errors.Add();
    reactor.RespondNow(
        conn, EncodeResponse(ErrorResponse(FrameType::kExecute, decoded)));
    return;
  }
  const auto it = st.statements.find(st.body_scratch.stmt_id);
  if (it == st.statements.end()) {
    reactor.RespondNow(
        conn, EncodeResponse(ErrorResponse(
                  FrameType::kExecute,
                  Status::NotFound("unknown statement id " +
                                   std::to_string(st.body_scratch.stmt_id) +
                                   " (never prepared, or already closed)"))));
    return;
  }
  const Status bound =
      BindStatementInto(it->second->tmpl, st.body_scratch.binds,
                        &st.stmt_scratch);
  if (!bound.ok()) {
    reactor.RespondNow(
        conn, EncodeResponse(ErrorResponse(FrameType::kExecute, bound)));
    return;
  }
  ServeForecast(reactor, conn, FrameType::kExecute, it->second, deadline,
                brownout);
}

void F2dbServer::QueryInline(Reactor& reactor,
                             const std::shared_ptr<ServerConnection>& conn,
                             const std::string& sql,
                             std::chrono::steady_clock::time_point deadline,
                             bool brownout) {
  // Unprepared traffic also goes through the engine's plan cache: a
  // repeated statement shape skips the lexer and parser, and execution is
  // the SAME ServeForecast the prepared path uses, so QUERY and EXECUTE
  // can never drift.
  auto plan_or = engine_.ParsePlan(sql);
  if (!plan_or.ok()) {
    reactor.RespondNow(conn, EncodeResponse(ErrorResponse(FrameType::kQuery,
                                                          plan_or.status())));
    return;
  }
  const PlanPtr& plan = plan_or.value();
  if (plan->tmpl.statement.kind == Statement::Kind::kInsert) {
    reactor.RespondNow(
        conn, EncodeResponse(ErrorResponse(
                  FrameType::kQuery,
                  Status::InvalidArgument(
                      "INSERT statements must be sent as INSERT frames"))));
    return;
  }
  if (!plan->tmpl.slots.empty()) {
    reactor.RespondNow(
        conn, EncodeResponse(ErrorResponse(
                  FrameType::kQuery,
                  Status::InvalidArgument(
                      "statement has " +
                      std::to_string(plan->tmpl.slots.size()) +
                      " unbound `?` parameter(s); use PREPARE / EXECUTE"))));
    return;
  }
  // Copy-assignment reuses the scratch statement's capacity.
  conn->prepared().stmt_scratch = plan->tmpl.statement;
  ServeForecast(reactor, conn, FrameType::kQuery, plan, deadline, brownout);
}

void F2dbServer::ServeForecast(Reactor& reactor,
                               const std::shared_ptr<ServerConnection>& conn,
                               FrameType type, const PlanPtr& plan,
                               std::chrono::steady_clock::time_point deadline,
                               bool brownout) {
  ServerConnection::PreparedState& st = conn->prepared();
  Statement& statement = st.stmt_scratch;
  if (statement.kind == Statement::Kind::kExplain) {
    // Cold path: EXPLAIN is a debugging aid, not a hot path.
    auto explained = engine_.Explain(statement.forecast);
    if (!explained.ok()) {
      reactor.RespondNow(
          conn, EncodeResponse(ErrorResponse(type, explained.status())));
      return;
    }
    WireResponse response;
    response.type = type;
    response.body = RenderExplainResult(explained.value());
    reactor.RespondNow(conn, EncodeResponse(response));
    return;
  }
  // The serving layer stamps the overload context; the SQL itself never
  // carries deadlines or brownout.
  ForecastQuery& query = statement.forecast;
  query.deadline = deadline;
  query.brownout = brownout;
  query.decline_refit = true;
  const Status executed =
      engine_.ExecutePlanInto(*plan, query, &st.result_scratch);
  if (!executed.ok()) {
    reactor.RespondNow(conn, EncodeResponse(ErrorResponse(type, executed)));
    return;
  }
  if (st.result_scratch.refit_declined) {
    // A model must be re-estimated first: the worker pool runs the query
    // with refits allowed, under the queue deadline and the shedding that
    // govern the expensive work. The declined attempt left no trace.
    query.decline_refit = false;
    Hop(reactor, conn, type, deadline, [this, type, plan, query] {
      QueryResult result;
      const Status refit = engine_.ExecutePlanInto(*plan, query, &result);
      if (!refit.ok()) return EncodeResponse(ErrorResponse(type, refit));
      std::string frame;
      AppendForecastResponseFrame(type, result, &frame);
      return frame;
    });
    return;
  }
  st.frame_scratch.clear();
  AppendForecastResponseFrame(type, st.result_scratch, &st.frame_scratch);
  reactor.RespondNowInline(conn, st.frame_scratch);
}

}  // namespace f2db
