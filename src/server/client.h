// Blocking C++ client for the f2db wire protocol.
//
// One F2dbClient wraps one TCP connection and issues one request at a time:
// Call() writes a complete frame and blocks until the matching response
// frame arrives. Transport problems (connect/write/read failures, broken
// framing, request timeouts) surface as the Result's error Status; an
// application-level failure (bad SQL, overload shedding, degraded answer)
// arrives as a successful Result whose WireResponse carries the server's
// StatusCode and DegradationLevel — the two are deliberately distinct so
// callers can retry transport errors and inspect serving-status without
// parsing text.
//
// Hardening (DESIGN.md §10): per-request send/receive timeouts bound how
// long a Call() can hang on a half-open peer (SO_SNDTIMEO/SO_RCVTIMEO), and
// CallWithReconnect() retries transport failures through a bounded,
// jitter-backed reconnect loop. A timed-out or mid-frame-broken stream is
// unrecoverable (the next response could belong to the dead request), so
// both paths close the socket before returning.
//
// Used by perfbench's serve workload (perfbench/perfbench.cc), the
// f2db_client example and the loopback integration tests.

#ifndef F2DB_SERVER_CLIENT_H_
#define F2DB_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "server/wire.h"

namespace f2db {

/// Client transport knobs. The defaults reproduce the original behavior
/// (block forever, never reconnect) so existing callers are unaffected.
struct ClientOptions {
  /// Per-request bound on each blocking send and receive; a request that
  /// exceeds it fails with kUnavailable and closes the connection (stream
  /// state mid-frame is unrecoverable). 0 = block forever.
  double request_timeout_seconds = 0.0;
  /// Reconnect attempts CallWithReconnect makes after a transport failure
  /// before giving up. 0 = never reconnect (plain Call behavior).
  std::size_t max_reconnect_attempts = 0;
  /// Base of the exponential reconnect backoff: attempt n sleeps
  /// base * 2^(n-1) seconds, scaled by a uniform [0.5, 1.0) jitter so a
  /// fleet of clients does not reconnect in lockstep. 0 = no sleep.
  double reconnect_backoff_seconds = 0.05;
  /// Seed of the jitter Rng (deterministic backoff in tests).
  std::uint64_t backoff_jitter_seed = 0x9E3779B97F4A7C15ULL;
  /// Stamp each QUERY/INSERT frame with a wire deadline derived from
  /// request_timeout_seconds (there is no point executing work the client
  /// has already given up on). No-op when the timeout is 0.
  bool propagate_deadline = true;
  /// Tenant identity sent as a HELLO frame right after every (re)connect;
  /// empty = no HELLO (the server's default tenant).
  std::string tenant_id;
  /// When the server throttles a request (kResourceExhausted with a
  /// retry-after hint), CallWithReconnect sleeps the hinted duration and
  /// retries, spending one reconnect attempt per retry. Sleeps are capped
  /// at this bound so a hostile hint cannot park the client.
  double max_retry_after_seconds = 5.0;
};

class F2dbClient {
 public:
  /// Connects (blocking) to host:port; IPv4 dotted-quad hosts only.
  static Result<F2dbClient> Connect(const std::string& host,
                                    std::uint16_t port,
                                    ClientOptions options = {});

  F2dbClient() = default;
  ~F2dbClient() { Close(); }

  F2dbClient(F2dbClient&& other) noexcept;
  F2dbClient& operator=(F2dbClient&& other) noexcept;
  F2dbClient(const F2dbClient&) = delete;
  F2dbClient& operator=(const F2dbClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  const ClientOptions& options() const { return options_; }

  /// Closes the connection (idempotent).
  void Close();

  /// Sends one request frame and blocks for the response frame (bounded by
  /// request_timeout_seconds per send/receive when configured). When
  /// propagate_deadline is on and a timeout is set, the frame carries the
  /// timeout as its wire deadline.
  Result<WireResponse> Call(FrameType type, std::string body);

  /// Call() with an explicit wire deadline (milliseconds of budget the
  /// server may spend; 0 = already expired, which the server rejects with
  /// kDeadlineExceeded at admission).
  Result<WireResponse> CallWithDeadline(FrameType type, std::string body,
                                        std::uint32_t deadline_ms);

  /// Call() plus bounded recovery: a transport failure closes the socket,
  /// reconnects with jittered exponential backoff (up to
  /// max_reconnect_attempts), and retries the request on the fresh
  /// connection. CAUTION: a request that died in flight may have executed
  /// server-side before the failure — retrying an INSERT this way can
  /// double-apply it (the engine then rejects the duplicate, which the
  /// caller sees as kAlreadyExists in the response status). Reserve it for
  /// idempotent requests or callers prepared for that answer.
  Result<WireResponse> CallWithReconnect(FrameType type,
                                         const std::string& body);

  /// Reconnects to the original endpoint (used by CallWithReconnect; also
  /// callable directly after a Close).
  Status Reconnect();

  /// Reconnect attempts made over this client's lifetime.
  std::size_t reconnects_attempted() const { return reconnects_attempted_; }
  /// Reconnect attempts that established a connection.
  std::size_t reconnects_succeeded() const { return reconnects_succeeded_; }

  /// SELECT / EXPLAIN SELECT statement over a QUERY frame.
  Result<WireResponse> Query(const std::string& sql) {
    return Call(FrameType::kQuery, sql);
  }
  /// INSERT statement over an INSERT frame.
  Result<WireResponse> Insert(const std::string& sql) {
    return Call(FrameType::kInsert, sql);
  }
  /// Prometheus-text engine + server counters.
  Result<WireResponse> Stats() { return Call(FrameType::kStats, ""); }
  /// Liveness probe; the response body is "PONG".
  Result<WireResponse> Ping() { return Call(FrameType::kPing, ""); }
  /// Binds this connection to `tenant_id` for rate-limiting purposes.
  /// Sent automatically on (re)connect when options.tenant_id is set.
  Result<WireResponse> Hello(const std::string& tenant_id) {
    return Call(FrameType::kHello, tenant_id);
  }

  // ----------------------------------------------- prepared statements

  /// Parses `sql` (which may contain `?` bind slots) once server-side and
  /// returns its connection-scoped statement id + slot count. Unlike
  /// Call(), a server-side refusal (bad SQL, statement cap) folds into the
  /// Result's error Status — there is no id to return.
  Result<PrepareOk> Prepare(const std::string& sql);

  /// Executes a prepared statement with one bind value per `?` slot, in
  /// slot order. The response body renders exactly like the equivalent
  /// QUERY. Statement ids are per-connection: after a reconnect every
  /// prepared id is gone and Prepare must run again.
  Result<WireResponse> ExecutePrepared(std::uint32_t stmt_id,
                                       const std::vector<std::string>& binds) {
    return Call(FrameType::kExecute, EncodeExecuteBody(stmt_id, binds));
  }

  /// Releases one prepared statement's server-side slot.
  Result<WireResponse> CloseStatement(std::uint32_t stmt_id) {
    return Call(FrameType::kCloseStmt, EncodeCloseStmtBody(stmt_id));
  }

 private:
  Result<WireResponse> CallInternal(FrameType type, std::string body,
                                    bool has_deadline,
                                    std::uint32_t deadline_ms);
  F2dbClient(int fd, std::string host, std::uint16_t port,
             const ClientOptions& options)
      : fd_(fd),
        host_(std::move(host)),
        port_(port),
        options_(options),
        jitter_(options.backoff_jitter_seed) {}

  int fd_ = -1;
  std::string host_;
  std::uint16_t port_ = 0;
  ClientOptions options_;
  Rng jitter_{0x9E3779B97F4A7C15ULL};
  std::size_t reconnects_attempted_ = 0;
  std::size_t reconnects_succeeded_ = 0;
};

}  // namespace f2db

#endif  // F2DB_SERVER_CLIENT_H_
