// Reactor: one event-loop thread of the multi-reactor server.
//
// The server runs a fixed pool of reactors (DESIGN.md §11). Each reactor
// owns, exclusively and for the connection's whole lifetime:
//   - its epoll instance and wake eventfd;
//   - an optional listening socket (every reactor has one under
//     SO_REUSEPORT, where the kernel load-balances new connections; only
//     reactor 0 listens in the hand-off fallback and distributes accepted
//     sockets round-robin);
//   - its connections' sockets, decoder state, and outboxes.
// No socket is ever touched by two reactors: a handed-off fd changes
// owners exactly once, through the AdoptSocket mailbox, before the
// receiving reactor registers it with epoll. Worker threads never touch
// sockets either — they enqueue encoded responses on the connection
// outbox and signal the owning reactor via NoteResponseReady + Wake.
//
// Request execution, admission control, and the shared counters live on
// F2dbServer; the reactor calls back into it for every decoded payload.

#ifndef F2DB_SERVER_REACTOR_H_
#define F2DB_SERVER_REACTOR_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "server/connection.h"

namespace f2db {

class F2dbServer;

class Reactor {
 public:
  /// `index` is the reactor's slot in the server's pool (used in hand-off
  /// round-robin and diagnostics). The server must outlive the reactor.
  Reactor(F2dbServer& server, std::size_t index);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Creates the epoll instance and wake eventfd.
  Status Init();

  /// Hands this reactor its listening socket (before Start); the reactor
  /// owns and closes it. -1 = this reactor does not listen.
  void SetListenFd(int fd);

  /// Spawns the event-loop thread. Init() must have succeeded.
  Status Start();

  /// True while the event loop runs.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Wakes the event loop. Async-signal-safe (one eventfd write).
  void Wake();

  /// Joins the event-loop thread (after the server requested shutdown).
  void Join();

  /// Transfers ownership of an accepted socket to this reactor (hand-off
  /// fallback). Thread-safe; the fd is registered on the next loop
  /// iteration. After this call only this reactor may touch the fd.
  void AdoptSocket(int fd);

  /// Worker threads: a response was enqueued on `conn`'s outbox; schedule
  /// a flush. Thread-safe. Callers must Wake() afterwards.
  void NoteResponseReady(const std::shared_ptr<ServerConnection>& conn);

  /// Enqueues an already-encoded response and flushes immediately.
  /// EVENT-LOOP THREAD ONLY — used for inline answers (PING, admission
  /// shedding, protocol errors) from the request path.
  void RespondNow(const std::shared_ptr<ServerConnection>& conn,
                  std::string encoded);

  /// RespondNow without the outbox round-trip: the frame bytes go straight
  /// into the connection's write buffer and the caller keeps ownership of
  /// `encoded`'s storage (the inline forecast path's reused arena).
  /// EVENT-LOOP THREAD ONLY.
  void RespondNowInline(const std::shared_ptr<ServerConnection>& conn,
                        std::string_view encoded);

  std::size_t index() const { return index_; }

 private:
  void EventLoop();
  void HandleAccept();
  /// Registers a socket this reactor owns (accepted or adopted).
  void RegisterConnection(int fd);
  /// Flushes one connection's pending bytes; evicts over-cap connections,
  /// manages epoll interest and close-after-flush. Event-loop thread only.
  void FlushConnection(const std::shared_ptr<ServerConnection>& conn);
  /// Recomputes the connection's epoll interest from its backpressure and
  /// write state: pauses reading past the outbound high watermark, resumes
  /// under half of it, arms/disarms EPOLLOUT. Event-loop thread only.
  void UpdateInterest(const std::shared_ptr<ServerConnection>& conn);
  /// Grace sweep over paused connections: resumes the ones that drained,
  /// evicts the ones still stalled past slow_client_grace_seconds.
  void SweepPausedConnections();
  void DropConnection(const std::shared_ptr<ServerConnection>& conn);
  /// True when no request is in flight server-wide and every connection
  /// of THIS reactor is flushed.
  bool DrainComplete();
  void CloseListenFd();

  F2dbServer& server_;
  const std::size_t index_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;

  std::thread thread_;
  std::atomic<bool> running_{false};

  /// Reactor-thread-owned connection table.
  std::unordered_map<int, std::shared_ptr<ServerConnection>> connections_;
  /// Connections currently read-paused (backpressure); when non-zero the
  /// event loop ticks on a timeout to run the grace sweep.
  std::size_t num_paused_ = 0;

  /// Cross-thread inboxes, drained once per loop iteration.
  std::mutex pending_mutex_;
  std::vector<std::shared_ptr<ServerConnection>> pending_write_;
  std::vector<int> adopted_fds_;
};

}  // namespace f2db

#endif  // F2DB_SERVER_REACTOR_H_
