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
    if (reply_.empty()) MOPE_RETURN_NOT_OK(Pump());
    if (reply_.empty()) {
      // Nothing to serve and no complete request pending: on a real network
      // this is a read deadline expiring with the peer silent.
      return Status::Unavailable("read deadline expired (no reply pending)");
    }
    const size_t n = std::min(max, reply_.size() - reply_pos_);
    reply_.copy(buf, n, reply_pos_);
    reply_pos_ += n;
    if (reply_pos_ == reply_.size()) {
      // Every reply byte has been read: free the buffer now (a swap, since
      // clear() and assigning an empty string keep the capacity), so a
      // connection holds only the replies still in flight.
      std::string().swap(reply_);
      reply_pos_ = 0;
    }
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
  /// channel is moved in, not copied.
  Status Pump() {
    size_t consumed = 0;
    while (pending_.size() >= kFrameHeaderBytes) {
      auto reply = dispatcher_->HandleFrameBytes(pending_, &consumed);
      if (!reply.ok()) {
        // Incomplete frame: wait for more bytes. Anything else poisons the
        // stream, exactly as a server session closing the connection would.
        if (reply.status().IsUnavailable()) return Status::OK();
        closed_ = true;
        return reply.status();
      }
      pending_.erase(0, consumed);
      if (reply_.empty()) {
        reply_ = std::move(reply).value();
      } else {
        reply_.append(*reply);
      }
    }
    return Status::OK();
  }

  WireDispatcher* dispatcher_;
  std::string pending_;  ///< Client -> server bytes not yet dispatched.
  std::string reply_;    ///< Server -> client bytes not yet read.
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
  switch (spec_.kind) {
    case FaultKind::kDropWrite:
      if (!fired_) {
        fired_ = true;
        return Status::OK();  // accepted, never delivered
      }
      break;
    case FaultKind::kFailWrite:
      if (!fired_) {
        fired_ = true;
        return Status::Unavailable("injected fault: connection reset");
      }
      break;
    default:
      break;
  }
  return inner_->Write(data, n);
}

}  // namespace mope::net
