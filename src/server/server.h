// F2dbServer: a multi-reactor epoll TCP serving layer over a forecast
// engine (one F2dbEngine or a ShardedEngine facade).
//
// Threading model (DESIGN.md §8, §11):
//   - A fixed pool of REACTOR threads (server/reactor.h). Each reactor
//     owns one epoll instance and, exclusively, its connections' sockets
//     and outboxes. With SO_REUSEPORT every reactor runs its own listener
//     and the kernel load-balances new connections; without it (older
//     kernels, or use_so_reuseport = false) reactor 0 accepts and hands
//     sockets off round-robin.
//   - Reactors answer every QUERY and EXECUTE that needs no model fit
//     themselves, through the engine's const query layer (each shard pins
//     its own immutable snapshot), so serving reads never block
//     maintenance and never pay a thread hop.
//   - A ThreadPool of workers executes the rest: forecasts that need a
//     lazy re-estimation first (the engine declined them on the reactor),
//     INSERT (through the owning shard's serialized maintenance layer) and
//     STATS. Workers hand finished responses back to the connection's
//     owning reactor through the outbox plus an eventfd wake — workers
//     never touch sockets.
//
// Admission control: the server tracks queued-plus-running worker requests
// in one atomic shared by all reactors. A request arriving while the count is at
// the configured limit is answered immediately with kUnavailable ("server
// overloaded") instead of being queued — bounded queues shed load early
// rather than building an unbounded backlog (the thundering-herd regime
// the ROADMAP's millions-of-users north star implies).
//
// Graceful shutdown: RequestShutdown() (async-signal-safe; see
// InstallSigtermShutdown) flips a flag and wakes every reactor. Each
// reactor stops accepting, answers late requests with kUnavailable, waits
// for in-flight work to finish and its own responses to flush (bounded by
// drain_timeout_seconds), then closes its connections and exits. After
// the drain the server compacts the engine — every shard of a sharded
// engine.

#ifndef F2DB_SERVER_SERVER_H_
#define F2DB_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/concurrent.h"
#include "common/rate_limiter.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "server/connection.h"
#include "server/reactor.h"
#include "server/wire.h"

namespace f2db {

/// Serving-layer tuning knobs. Immutable once the server is constructed.
struct ServerOptions {
  /// Listen address; tests and the loopback bench use 127.0.0.1.
  std::string host = "127.0.0.1";
  /// Listen port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Reactor (event-loop) threads; each owns its connections exclusively
  /// (at least 1).
  std::size_t reactor_threads = 1;
  /// Per-reactor SO_REUSEPORT listeners when true (the kernel
  /// load-balances new connections across reactors). When false — or when
  /// the kernel rejects SO_REUSEPORT — reactor 0 runs the only listener
  /// and hands accepted sockets off round-robin.
  bool use_so_reuseport = true;
  /// Worker threads executing requests (at least 1).
  std::size_t worker_threads = 4;
  /// Admission watermark: requests queued or running before new arrivals
  /// are shed with kUnavailable.
  std::size_t admission_queue_limit = 64;
  /// Accepted sockets beyond this are refused (closed immediately);
  /// counted across all reactors.
  std::size_t max_connections = 256;
  /// Per-frame payload cap enforced by the decoder.
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Graceful-shutdown drain bound; connections still busy afterwards are
  /// closed anyway.
  double drain_timeout_seconds = 10.0;
  /// Per-tenant token-bucket rate (QUERY/INSERT frames per second; tenants
  /// are bound by HELLO frames, connections that never said HELLO share
  /// the "" tenant). 0 disables rate limiting.
  double tenant_rate_limit_per_second = 0.0;
  /// Token-bucket burst (frames); <= 0 defaults to one second's worth.
  double tenant_rate_burst = 0.0;
  /// Outbound backpressure: reading from a connection pauses once its
  /// unsent bytes exceed this watermark (resumes at half). 0 disables
  /// pausing.
  std::size_t outbound_high_watermark_bytes = 256 * 1024;
  /// Hard ceiling on one connection's unsent bytes; a response that would
  /// cross it is refused and the connection evicted. 0 = unbounded.
  std::size_t outbound_hard_cap_bytes = 4 * 1024 * 1024;
  /// A connection read-paused longer than this is evicted as a slow
  /// client. <= 0 disables eviction (paused connections linger).
  double slow_client_grace_seconds = 5.0;
  /// Brownout watermark: while queued-plus-running requests are at or
  /// above this, queries run in brownout mode — the engine skips lazy
  /// re-estimation and serves the stale rung, annotated — shedding work
  /// BEFORE the admission limit starts refusing outright. 0 disables
  /// brownout. Should sit below admission_queue_limit.
  std::size_t brownout_watermark = 32;
  /// Hard cap on one connection's open prepared statements; a PREPARE past
  /// it is refused with kResourceExhausted until the client closes one.
  std::size_t max_prepared_statements = 128;
  /// Test-only: runs at the start of every worker task (before the request
  /// executes), so it fires only on work that hopped to the pool: INSERT,
  /// STATS and forecasts that need a model fit — never on a forecast the
  /// reactor answers itself. Integration tests block here to saturate the
  /// admission queue deterministically. Leave empty in production.
  std::function<void()> worker_test_hook;
};

/// Every server metric, declared once (row format in engine/stats_export.h;
/// server rows carry no merge rule). READ expressions run inside
/// F2dbServer::stats(). Each labeled family closes with an unlabeled
/// sample summing its causes.
#define F2DB_SERVER_METRICS(METRIC, FAMILY, SAMPLE)                          \
  METRIC(connections_accepted, std::size_t, OWNED, counter,                  \
         "f2db_server_connections_accepted_total",                           \
         "Client connections accepted.")                                     \
  METRIC(connections_closed, std::size_t, OWNED, counter,                    \
         "f2db_server_connections_closed_total",                             \
         "Client connections closed (peer or server side).")                 \
  METRIC(connections_refused, std::size_t, OWNED, counter,                   \
         "f2db_server_connections_refused_total",                            \
         "Connections refused at the max_connections cap.")                  \
  METRIC(connections_evicted, std::size_t, OWNED, counter,                   \
         "f2db_server_connections_evicted_total",                            \
         "Connections dropped by backpressure (outbound hard cap or the "    \
         "slow-client grace timer).")                                        \
  METRIC(read_pauses, std::size_t, OWNED, counter,                           \
         "f2db_server_read_pauses_total",                                    \
         "Times a connection crossed the outbound high watermark and had "   \
         "its reading paused.")                                              \
  METRIC(requests_received, std::size_t, OWNED, counter,                     \
         "f2db_server_requests_total", "Request frames received.")           \
  METRIC(responses_sent, std::size_t, OWNED, counter,                        \
         "f2db_server_responses_total",                                      \
         "Response frames queued for transmission.")                         \
  FAMILY(counter, "f2db_server_requests_shed_total",                         \
         "Requests answered kUnavailable by admission control, by cause.",   \
         "cause")                                                            \
  SAMPLE(requests_shed_admission, std::size_t, OWNED, "admission")           \
  SAMPLE(requests_shed_shutdown, std::size_t, OWNED, "shutdown")             \
  METRIC(requests_throttled, std::size_t, OWNED, counter,                    \
         "f2db_server_requests_throttled_total",                             \
         "Requests refused with kResourceExhausted by a tenant's token "     \
         "bucket.")                                                          \
  FAMILY(counter, "f2db_server_deadline_expired_total",                      \
         "Requests rejected with kDeadlineExceeded before execution, by "    \
         "pipeline stage.",                                                  \
         "stage")                                                            \
  SAMPLE(deadline_expired_admission, std::size_t, OWNED, "admission")        \
  SAMPLE(deadline_expired_queue, std::size_t, OWNED, "queue")                \
  METRIC(protocol_errors, std::size_t, OWNED, counter,                       \
         "f2db_server_protocol_errors_total",                                \
         "Malformed or oversized frames received.")                          \
  METRIC(brownout_episodes, std::size_t, OWNED, counter,                     \
         "f2db_server_brownout_episodes_total",                              \
         "Brownout-mode transitions (inactive to active).")                  \
  METRIC(brownout_queries, std::size_t, OWNED, counter,                      \
         "f2db_server_brownout_queries_total",                               \
         "Queries executed in brownout mode.")                               \
  METRIC(brownout_active, std::size_t,                                       \
         READ(brownout_active_.load(std::memory_order_relaxed)), gauge,      \
         "f2db_server_brownout_active",                                      \
         "1 while the server is currently in brownout.")                     \
  METRIC(in_flight_requests, std::size_t,                                    \
         READ(in_flight_.load(std::memory_order_relaxed)), gauge,            \
         "f2db_server_inflight_requests",                                    \
         "Requests queued or executing right now.")

#define F2DB_SERVER_FIELD(field, ctype, ...) ctype field = 0;

/// Value snapshot of the server counters, one field per
/// F2DB_SERVER_METRICS series (relaxed atomics underneath, like
/// EngineStats: individually exact, not mutually consistent).
struct ServerStats {
  F2DB_SERVER_METRICS(F2DB_SERVER_FIELD, F2DB_METRIC_SWALLOW,
                      F2DB_SERVER_FIELD)
  /// requests_shed_admission + requests_shed_shutdown.
  std::size_t requests_shed = 0;

  /// Prometheus text for the server-side families (f2db_server_*).
  std::string ToPrometheusText() const;
};

/// Appends one complete kOk response frame (length prefix included)
/// carrying a rendered forecast result. Everything lands in `out`, whose
/// capacity is reused across requests — the inline forecast path's
/// zero-allocation encode.
void AppendForecastResponseFrame(FrameType type, const QueryResult& result,
                                 std::string* out);

/// The TCP serving layer. Does not own the engine; the engine must outlive
/// the server.
class F2dbServer {
 public:
  explicit F2dbServer(EngineInterface& engine, ServerOptions options = {});
  ~F2dbServer();

  F2dbServer(const F2dbServer&) = delete;
  F2dbServer& operator=(const F2dbServer&) = delete;

  /// Binds, listens, and starts the reactor pool + worker pool.
  Status Start();

  /// The bound port (resolved when options.port was 0). Valid after a
  /// successful Start().
  std::uint16_t port() const { return port_; }

  /// True from a successful Start() until every reactor has exited.
  bool running() const;

  /// True when Start() fell back to the single-listener hand-off path
  /// (use_so_reuseport = false or the kernel lacks SO_REUSEPORT). Valid
  /// after a successful Start(); exposed for tests and diagnostics.
  bool accept_handoff_active() const { return accept_handoff_; }

  /// Begins a graceful drain: async-signal-safe (atomic store + one
  /// eventfd write per reactor), callable from a signal handler.
  void RequestShutdown();

  /// RequestShutdown() plus join: blocks until in-flight requests drained
  /// (bounded by drain_timeout_seconds), all sockets are closed, and the
  /// worker pool has stopped. Then compacts a durable engine (every
  /// shard). Idempotent.
  void Shutdown();

  ServerStats stats() const;

  /// Combined Prometheus exposition: engine families (per-shard labels
  /// for a sharded engine) + server families. This is the STATS frame's
  /// response body.
  std::string StatsPrometheusText() const;

  /// Routes SIGTERM to server->RequestShutdown() — the drain-then-close
  /// shutdown path for a deployed process. Pass nullptr to detach.
  static Status InstallSigtermShutdown(F2dbServer* server);

 private:
  friend class Reactor;

  struct StatsCounters {
    F2DB_SERVER_METRICS(F2DB_METRIC_SLOT_ROW, F2DB_METRIC_SWALLOW,
                        F2DB_METRIC_SLOT_ROW)
  };

  /// Creates one non-blocking listener bound to host:port. Sets
  /// SO_REUSEPORT when `reuseport` is non-null and reports whether the
  /// kernel accepted it. On the first successful bind port_ is resolved.
  Result<int> CreateListener(bool* reuseport);

  /// Called by a reactor for every decoded request payload; runs on that
  /// reactor's thread. Walks the admission ladder: HELLO/PING inline,
  /// shutdown shed, deadline-at-admission, per-tenant throttle, watermark
  /// shed, brownout decision. Then QUERY and EXECUTE are served inline
  /// (ServeForecast), and INSERT and STATS hop to a worker.
  void HandleRequest(Reactor& reactor,
                     const std::shared_ptr<ServerConnection>& conn,
                     const std::string& payload);
  /// Hands `work` (returning the encoded response) to a worker: holds an
  /// in_flight_ slot, fires worker_test_hook, answers kDeadlineExceeded
  /// instead when `deadline` passed while queued, and flushes through the
  /// connection's outbox.
  template <typename Work>
  void Hop(Reactor& reactor, const std::shared_ptr<ServerConnection>& conn,
           FrameType type, std::chrono::steady_clock::time_point deadline,
           Work work);
  /// Executes one INSERT or STATS request on a worker thread.
  WireResponse ExecuteRequest(const WireRequest& request) const;

  /// PREPARE / CLOSE_STMT handlers: run inline on the reactor thread,
  /// which owns the connection's statement table.
  void HandlePrepare(Reactor& reactor,
                     const std::shared_ptr<ServerConnection>& conn,
                     const std::string& sql);
  void HandleCloseStmt(Reactor& reactor,
                       const std::shared_ptr<ServerConnection>& conn,
                       const std::string& body);
  /// EXECUTE hot path: decodes and binds into the connection's scratch
  /// arena, then ServeForecast — no steady-state allocation. Runs AFTER
  /// the admission ladder, with the same deadline/brownout stamps a QUERY
  /// gets.
  void ExecutePreparedInline(Reactor& reactor,
                             const std::shared_ptr<ServerConnection>& conn,
                             const std::string& body,
                             std::chrono::steady_clock::time_point deadline,
                             bool brownout);
  /// Raw QUERY: resolves the plan (plan cache, or a parse) on the reactor,
  /// copies its statement into the scratch arena, then ServeForecast.
  void QueryInline(Reactor& reactor,
                   const std::shared_ptr<ServerConnection>& conn,
                   const std::string& sql,
                   std::chrono::steady_clock::time_point deadline,
                   bool brownout);
  /// The forecast tail QUERY and EXECUTE share, for the statement bound in
  /// the connection's scratch: EXPLAIN, or an execution that declines
  /// refits. An answer is rendered and flushed from the scratch arena; a
  /// declined execution hops to a worker with `plan`, which reruns it
  /// with refits allowed.
  void ServeForecast(Reactor& reactor,
                     const std::shared_ptr<ServerConnection>& conn,
                     FrameType type, const PlanPtr& plan,
                     std::chrono::steady_clock::time_point deadline,
                     bool brownout);

  EngineInterface& engine_;
  const ServerOptions options_;
  mutable StatsCounters stats_;

  std::uint16_t port_ = 0;
  bool accept_handoff_ = false;

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::unique_ptr<ThreadPool> pool_;
  bool started_ = false;
  std::atomic<bool> shutdown_requested_{false};

  /// Per-tenant token buckets; null when rate limiting is disabled.
  std::unique_ptr<TenantRateLimiters> limiters_;
  /// Whether the server is currently in brownout (hysteresis state for
  /// episode counting and the f2db_server_brownout_active gauge).
  std::atomic<bool> brownout_active_{false};

  /// Queued + running worker requests (admission control and drain
  /// tracking); shared across reactors.
  std::atomic<std::size_t> in_flight_{0};
  /// Open connections across all reactors (max_connections enforcement).
  std::atomic<std::size_t> num_connections_{0};
  /// Hand-off round-robin cursor (reactor 0's accept path).
  std::atomic<std::size_t> next_reactor_{0};
};

}  // namespace f2db

#endif  // F2DB_SERVER_SERVER_H_
