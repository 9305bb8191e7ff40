// Per-socket connection state machine for the f2db server.
//
// A ServerConnection is owned by the server's event-loop thread, which
// performs ALL socket I/O on it: non-blocking reads feed the incremental
// FrameDecoder, non-blocking writes drain the write buffer. Worker threads
// never touch the socket — a worker finishing a request appends the encoded
// response to the connection's mutex-protected outbox and wakes the event
// loop, which moves the outbox into the write buffer and flushes it.
//
// Backpressure (DESIGN.md §12): pending_out_bytes() tracks every byte
// queued (outbox) or buffered (write buffer) but not yet written to the
// socket. The reactor pauses reading from a connection past the configured
// high watermark and evicts it at the hard cap — EnqueueResponse refuses
// the frame and marks the connection over-cap, so a peer that never reads
// can neither exhaust server memory nor stall its reactor.
//
// Lifetime: the server's connection table and every in-flight worker task
// hold a shared_ptr. When the event loop drops a connection (peer close,
// protocol error, shutdown, eviction) it closes the fd and removes the
// table entry; stragglers still enqueue into the outbox harmlessly and the
// object is freed when the last worker finishes.

#ifndef F2DB_SERVER_CONNECTION_H_
#define F2DB_SERVER_CONNECTION_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "engine/query.h"
#include "server/wire.h"

namespace f2db {

class TokenBucket;  // common/rate_limiter.h

class ServerConnection {
 public:
  /// `outbound_cap_bytes` bounds pending_out_bytes(); 0 = unbounded (tests
  /// of the raw state machine).
  ServerConnection(int fd, std::size_t max_frame_bytes,
                   std::size_t outbound_cap_bytes = 0)
      : fd_(fd),
        decoder_(max_frame_bytes),
        outbound_cap_bytes_(outbound_cap_bytes) {}
  ~ServerConnection() { CloseFd(); }

  ServerConnection(const ServerConnection&) = delete;
  ServerConnection& operator=(const ServerConnection&) = delete;

  int fd() const { return fd_; }

  /// Outcome of one readable-event handling pass.
  struct ReadOutcome {
    /// Complete frame payloads extracted this pass, in arrival order.
    std::vector<std::string> payloads;
    /// Peer closed its end (EOF) or the read hit a fatal socket error.
    bool closed = false;
    /// Non-OK when the stream's framing is broken (oversized or
    /// zero-length frame announcement); the connection must be dropped
    /// after flushing an error response.
    Status framing_error;
  };

  /// Event-loop only: reads until EAGAIN and reassembles frames.
  ReadOutcome ReadReady();

  /// Worker-safe: queues one encoded response frame for transmission.
  /// Returns false — and marks the connection over-cap for eviction —
  /// when the frame would push pending_out_bytes() past the hard cap (the
  /// frame is NOT queued; the peer is not reading anyway).
  bool EnqueueResponse(std::string encoded);

  /// Bytes queued or buffered but not yet written to the socket.
  std::size_t pending_out_bytes() const {
    return pending_out_bytes_.load(std::memory_order_relaxed);
  }

  /// A response overflowed the hard cap; the reactor must evict this
  /// connection.
  bool over_outbound_cap() const {
    return over_outbound_cap_.load(std::memory_order_relaxed);
  }

  /// Event-loop only: moves the outbox into the write buffer and writes
  /// until EAGAIN or empty. Returns false on a fatal write error.
  bool FlushWrites();

  /// Unsent bytes remain (EPOLLOUT should be armed).
  bool wants_write();

  /// Event-loop bookkeeping: which epoll interests are currently armed.
  bool epollin_armed = true;
  bool epollout_armed = false;

  /// Event-loop bookkeeping: reading is paused (outbound backpressure).
  bool reading_paused = false;
  /// When the pause began (slow-client grace accounting).
  std::chrono::steady_clock::time_point pause_started{};

  /// Tenant identity bound by a HELLO frame and the cached rate-limiter
  /// bucket. Reactor-thread only (set on HELLO, read per request).
  std::string tenant_id;
  TokenBucket* rate_limiter = nullptr;

  /// Prepared-statement table and the inline forecast path's scratch
  /// arena (EXECUTE and QUERY). Reactor-thread only, like tenant_id:
  /// PREPARE/EXECUTE/CLOSE_STMT and QUERY are handled on the owning
  /// reactor, so none of this needs locking.
  /// Statement ids are per-connection and never reused within one
  /// connection's lifetime (next_stmt_id only grows).
  ///
  /// The scratch members are the "arena": each EXECUTE decodes, binds,
  /// executes, and renders into them, and every one of them reuses its
  /// heap capacity across requests — after warm-up the whole inline path
  /// performs zero allocations (asserted by the allocation-counting test).
  struct PreparedState {
    std::unordered_map<std::uint32_t, PlanPtr> statements;
    std::uint32_t next_stmt_id = 1;
    ExecuteBody body_scratch;     ///< decoded EXECUTE body
    Statement stmt_scratch;       ///< bound statement
    QueryResult result_scratch;   ///< engine result rows
    std::string frame_scratch;    ///< fully-encoded response frame
  };
  PreparedState& prepared() { return prepared_; }

  /// Event-loop only: appends one already-encoded response frame straight
  /// into the write buffer, bypassing the outbox — no mutex, and the
  /// caller keeps ownership (and capacity) of `encoded`'s storage. Same
  /// hard-cap rule and return convention as EnqueueResponse.
  bool AppendResponseInline(std::string_view encoded);

  /// The connection should be closed once the write buffer drains
  /// (protocol error or server drain).
  void MarkCloseAfterFlush() { close_after_flush_ = true; }
  bool close_after_flush() const { return close_after_flush_; }

  /// Requests dispatched to workers but not yet answered.
  void BeginRequest() { in_flight_.fetch_add(1, std::memory_order_relaxed); }
  void EndRequest() { in_flight_.fetch_sub(1, std::memory_order_relaxed); }
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  void CloseFd();
  bool fd_closed() const { return fd_ < 0; }

 private:
  int fd_;
  FrameDecoder decoder_;
  const std::size_t outbound_cap_bytes_;

  std::mutex outbox_mutex_;
  std::vector<std::string> outbox_;

  PreparedState prepared_;

  /// Write-side state, event-loop only.
  std::string write_buffer_;
  std::size_t write_offset_ = 0;
  bool close_after_flush_ = false;

  std::atomic<std::size_t> in_flight_{0};
  /// Outbox + write-buffer bytes not yet written to the socket. Workers
  /// add on enqueue, the event loop subtracts what write() accepted.
  std::atomic<std::size_t> pending_out_bytes_{0};
  std::atomic<bool> over_outbound_cap_{false};
};

}  // namespace f2db

#endif  // F2DB_SERVER_CONNECTION_H_
