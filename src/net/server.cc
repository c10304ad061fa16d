#include "net/server.h"

#include <utility>

#include "net/wire.h"
#include "obs/log.h"

namespace mope::net {

Result<std::unique_ptr<TcpServer>> TcpServer::Start(engine::DbServer* server,
                                                    TcpServerOptions options) {
  if (server == nullptr) {
    return Status::InvalidArgument("daemon needs a DbServer");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument("daemon needs at least one worker");
  }
  if (options.num_workers > kMaxWorkers) {
    return Status::InvalidArgument(
        "daemon takes at most " + std::to_string(kMaxWorkers) +
        " workers, got " + std::to_string(options.num_workers));
  }
  MOPE_ASSIGN_OR_RETURN(std::unique_ptr<TcpListener> listener,
                        TcpListener::Bind(options.host, options.port));
  auto daemon = std::unique_ptr<TcpServer>(
      new TcpServer(server, std::move(options), std::move(listener)));
  daemon->listen_thread_ = std::thread([d = daemon.get()] { d->ListenLoop(); });
  daemon->workers_.reserve(daemon->options_.num_workers);
  for (int i = 0; i < daemon->options_.num_workers; ++i) {
    daemon->workers_.emplace_back([d = daemon.get()] { d->WorkerLoop(); });
  }
  return daemon;
}

void TcpServer::Stop() {
  if (stopping_.exchange(true)) {
    return;  // second Stop (e.g. destructor after explicit Stop)
  }
  // Acquire and release the queue mutex between raising the flag and
  // notifying. Without it a worker that evaluated its wait predicate (false)
  // but had not yet blocked would miss this wakeup and sleep forever: the
  // empty critical section forces such a worker to either see the flag or be
  // fully parked in the wait before the notify fires.
  { const MutexLock lock(&queue_mutex_); }
  queue_cv_.NotifyAll();
  if (listen_thread_.joinable()) listen_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  listener_->Close();
}

TcpServer::~TcpServer() { Stop(); }

void TcpServer::ListenLoop() {
  while (!stopping_.load()) {
    auto session = listener_->Accept(options_.poll_interval_ms,
                                     options_.session_options);
    if (!session.ok()) {
      // Accept failures are transient (e.g. the peer already reset); keep
      // serving unless we're shutting down.
      continue;
    }
    if (*session == nullptr) continue;  // poll timeout: re-check stop flag
    connections_accepted_->Increment();
    bool admitted = false;
    {
      const MutexLock lock(&queue_mutex_);
      if (pending_.size() < options_.max_pending_sessions) {
        pending_.push_back(std::move(*session));
        admitted = true;
      }
    }
    if (admitted) {
      MOPE_LOG(kDebug, "net", "connection_accepted")
          .Arg("total", connections_accepted_->Value());
      queue_cv_.NotifyOne();
    } else {
      // Every worker is busy and the backlog is full: shed this connection
      // now (close reads as Unavailable client-side and is retried) rather
      // than park it in an unbounded queue.
      connections_rejected_->Increment();
      MOPE_LOG(kWarn, "net", "connection_rejected")
          .Arg("pending_cap", options_.max_pending_sessions)
          .Arg("total_rejected", connections_rejected_->Value());
      (*session)->Close();
    }
  }
}

void TcpServer::WorkerLoop() {
  while (true) {
    std::unique_ptr<SocketTransport> session;
    {
      MutexLock lock(&queue_mutex_);
      // An explicit loop instead of the predicate-lambda wait: the capability
      // analysis checks a lambda body as its own function, which would not
      // see the lock this scope holds over `pending_`.
      while (!stopping_.load() && pending_.empty()) {
        queue_cv_.Wait(lock);
      }
      if (pending_.empty()) return;  // stopping and drained
      session = std::move(pending_.front());
      pending_.pop_front();
    }
    ServeSession(session.get());
    session->Close();
    MOPE_LOG(kDebug, "net", "session_closed");
  }
}

void TcpServer::ServeSession(SocketTransport* session) {
  std::string buffer;
  // One reply buffer for the session's life: each reply is written into
  // the previous one's storage (WireDispatcher::HandleFrameBytes).
  std::string reply;
  int idle_ms = 0;
  while (!stopping_.load()) {
    // Block in short slices so shutdown is never stuck behind an idle client.
    auto ready = session->Poll(options_.poll_interval_ms);
    if (!ready.ok()) return;
    if (!*ready) {
      // A silent client holds one of num_workers slots; give it up after the
      // idle budget so connected-but-quiet peers cannot starve the pool.
      idle_ms += options_.poll_interval_ms;
      if (options_.idle_timeout_ms > 0 && idle_ms >= options_.idle_timeout_ms) {
        return;
      }
      continue;
    }
    idle_ms = 0;

    char chunk[4096];
    auto n = session->Read(chunk, sizeof(chunk));
    if (!n.ok() || *n == 0) return;  // peer hung up (or reset): done
    buffer.append(chunk, *n);

    // Serve every complete frame in the buffer (clients may pipeline).
    while (buffer.size() >= kFrameHeaderBytes) {
      size_t consumed = 0;
      auto framed =
          dispatcher_.HandleFrameBytes(buffer, &consumed, std::move(reply));
      if (!framed.ok()) {
        if (framed.status().IsUnavailable()) break;  // incomplete: read more
        return;  // framing violation: this stream cannot be trusted
      }
      reply = std::move(framed).value();
      buffer.erase(0, consumed);
      if (!session->Write(reply.data(), reply.size()).ok()) return;
    }
  }
}

}  // namespace mope::net
