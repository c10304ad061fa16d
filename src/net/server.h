#ifndef MOPE_NET_SERVER_H_
#define MOPE_NET_SERVER_H_

/// \file server.h
/// The TCP server daemon: engine::DbServer behind the wire protocol.
///
/// One listener thread accepts connections and feeds a fixed pool of worker
/// threads; each worker runs a session loop (read frame, dispatch, write
/// reply) over one connection at a time. Engine access is serialized by the
/// shared WireDispatcher — the workers overlap network I/O, decoding and
/// encoding, which is where a daemon spends its time on small frames.
///
/// Shutdown is graceful and deterministic: Stop() raises a flag that every
/// blocking point (accept, session read) polls on a short cadence, in-flight
/// requests complete, replies are flushed, then sockets close and threads
/// join. A malformed or hostile client only ever costs its own connection —
/// framing errors close that session, never the daemon — and an idle or
/// merely-connected one cannot starve the pool: sessions close after
/// idle_timeout_ms of silence and accepts beyond max_pending_sessions are
/// rejected instead of queueing unboundedly.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/server.h"
#include "net/dispatcher.h"
#include "net/socket.h"

namespace mope::net {

struct TcpServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0: ephemeral; the bound port is TcpServer::port().
  int num_workers = 4;
  /// Cadence at which blocked accepts/reads re-check the stop flag.
  int poll_interval_ms = 50;
  /// Close a session after this long with no bytes from its client, so idle
  /// connections cannot pin the fixed worker pool forever. <= 0 disables.
  int idle_timeout_ms = 60000;
  /// Connections beyond this many waiting for a free worker are closed at
  /// accept (the client sees a reset and retries); bounds both memory and
  /// the time an accepted-but-unserved client sits in the dark.
  size_t max_pending_sessions = 64;
  /// Socket deadlines for accepted connections.
  SocketOptions session_options;
  /// Dispatcher policy (reply caps, slow-query accounting, periodic
  /// checkpointing); shared by every session of this daemon.
  DispatcherOptions dispatcher;
};

class TcpServer {
 public:
  /// The most workers Start accepts: each is an OS thread, so a mistyped
  /// count must be an error, not thousands of threads.
  static constexpr int kMaxWorkers = 256;

  /// Binds, spawns the listener and worker threads, and starts serving
  /// `server` (which must outlive the TcpServer and must not be mutated
  /// concurrently except through this daemon). InvalidArgument, before
  /// anything binds or starts, unless 1 <= num_workers <= kMaxWorkers.
  static Result<std::unique_ptr<TcpServer>> Start(engine::DbServer* server,
                                                  TcpServerOptions options);

  /// Graceful shutdown; safe to call more than once. The destructor calls it.
  void Stop();
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  uint16_t port() const { return listener_->port(); }
  uint64_t connections_accepted() const {
    return connections_accepted_->Value();
  }
  /// Connections closed at accept because the pending queue was full.
  uint64_t connections_rejected() const {
    return connections_rejected_->Value();
  }
  uint64_t frames_served() const { return dispatcher_.frames_served(); }

 private:
  // The accept counters live in the DbServer's registry (`net.server.*`) so
  // a kStatsRequest sees them alongside the engine counters.
  TcpServer(engine::DbServer* server, TcpServerOptions options,
            std::unique_ptr<TcpListener> listener)
      : options_(std::move(options)), listener_(std::move(listener)),
        dispatcher_(server, options_.dispatcher),
        connections_accepted_(server->metrics()->GetCounter(
            "net.server.connections_accepted")),
        connections_rejected_(server->metrics()->GetCounter(
            "net.server.connections_rejected")) {}

  void ListenLoop();
  void WorkerLoop();
  void ServeSession(SocketTransport* session);

  TcpServerOptions options_;
  std::unique_ptr<TcpListener> listener_;
  WireDispatcher dispatcher_;

  std::atomic<bool> stopping_{false};
  obs::Counter* connections_accepted_;
  obs::Counter* connections_rejected_;

  Mutex queue_mutex_{lock_rank::kServerAcceptQueue};
  CondVar queue_cv_;
  std::deque<std::unique_ptr<SocketTransport>> pending_
      MOPE_GUARDED_BY(queue_mutex_);

  std::thread listen_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace mope::net

#endif  // MOPE_NET_SERVER_H_
