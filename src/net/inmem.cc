#include "net/inmem.h"

#include <algorithm>
#include <utility>

#include "net/wire.h"

namespace mope::net {

class InProcessChannel::ClientTransport final : public Transport {
 public:
  explicit ClientTransport(WireDispatcher* dispatcher)
      : dispatcher_(dispatcher) {}

  Result<size_t> Read(char* buf, size_t max) override {
    if (closed_) return Status::Unavailable("transport closed");
    if (reply_pos_ == reply_.size()) MOPE_RETURN_NOT_OK(Pump());
    if (reply_pos_ == reply_.size()) {
      // Nothing to serve and no complete request pending: on a real network
      // this is a read deadline expiring with the peer silent.
      return Status::Unavailable("read deadline expired (no reply pending)");
    }
    const size_t n = std::min(max, reply_.size() - reply_pos_);
    reply_.copy(buf, n, reply_pos_);
    reply_pos_ += n;
    return n;
  }

  Status Write(const char* data, size_t n) override {
    if (closed_) return Status::Unavailable("transport closed");
    pending_.append(data, n);
    return Status::OK();
  }

  void Close() override { closed_ = true; }

 private:
  /// Serves every complete request currently buffered, queueing replies in
  /// order (a pipelined client gets pipelined replies). A reply to an idle
  /// channel, every byte of the last one read, is written into the
  /// retained reply buffer, which keeps that reply's size: the dispatcher
  /// rewrites a reply no larger in place, with no byte cleared first. One
  /// queued behind unread bytes is appended to them.
  Status Pump() {
    size_t consumed = 0;
    while (pending_.size() >= kFrameHeaderBytes) {
      const bool idle = reply_pos_ == reply_.size();
      if (idle) reply_pos_ = 0;
      // An idle channel lends the dispatcher its buffer (exchange leaves
      // reply_ empty, whatever the call returns).
      auto reply = dispatcher_->HandleFrameBytes(
          pending_, &consumed,
          idle ? std::exchange(reply_, std::string()) : std::string());
      if (!reply.ok()) {
        // Incomplete frame: wait for more bytes. Anything else poisons the
        // stream, exactly as a server session closing the connection would.
        if (reply.status().IsUnavailable()) return Status::OK();
        closed_ = true;
        return reply.status();
      }
      pending_.erase(0, consumed);
      if (idle) {
        reply_ = std::move(reply).value();
      } else {
        reply_.append(*reply);
      }
    }
    return Status::OK();
  }

  WireDispatcher* dispatcher_;
  std::string pending_;  ///< Client -> server bytes not yet dispatched.
  std::string reply_;    ///< Server -> client bytes; read up to reply_pos_.
  size_t reply_pos_ = 0;
  bool closed_ = false;
};

std::unique_ptr<Transport> InProcessChannel::NewTransport() {
  return std::make_unique<ClientTransport>(dispatcher_);
}

Result<size_t> FaultInjectingTransport::Read(char* buf, size_t max) {
  switch (spec_.kind) {
    case FaultKind::kTimeoutRead:
      if (!fired_) {
        fired_ = true;
        return Status::Unavailable("injected fault: read timed out");
      }
      break;
    case FaultKind::kTruncate:
    case FaultKind::kDisconnect:
      if (bytes_delivered_ >= spec_.arg) return static_cast<size_t>(0);
      max = std::min<uint64_t>(max, spec_.arg - bytes_delivered_);
      break;
    default:
      break;
  }
  MOPE_ASSIGN_OR_RETURN(size_t n, inner_->Read(buf, max));
  if (spec_.kind == FaultKind::kCorrupt && spec_.arg >= bytes_delivered_ &&
      spec_.arg < bytes_delivered_ + n) {
    buf[spec_.arg - bytes_delivered_] ^= static_cast<char>(0xFF);
  }
  bytes_delivered_ += n;
  return n;
}

Status FaultInjectingTransport::Write(const char* data, size_t n) {
  if (writes_++ == spec_.arg) {
    if (spec_.kind == FaultKind::kDropWrite) {
      return Status::OK();  // accepted, never delivered
    }
    if (spec_.kind == FaultKind::kFailWrite) {
      return Status::Unavailable("injected fault: connection reset");
    }
  }
  return inner_->Write(data, n);
}

}  // namespace mope::net
