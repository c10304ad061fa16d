#ifndef MOPE_NET_INMEM_H_
#define MOPE_NET_INMEM_H_

/// \file inmem.h
/// Deterministic in-memory transports: the whole wire protocol without a
/// socket in sight.
///
/// InProcessChannel couples a client-side Transport to a WireDispatcher on
/// the same thread: bytes Written by the client accumulate in a request
/// buffer, and the first Read after a complete request pumps the dispatcher
/// exactly once and serves the reply bytes back. Single-threaded, no clock,
/// no kernel — every test run takes the same code path byte for byte.
///
/// FaultInjectingTransport wraps any Transport and misbehaves on command:
/// swallow a request, time a read out, cut the reply short, flip a byte,
/// hang up mid-reply. Counters (not randomness) trigger the faults, so each
/// failure scenario is exactly reproducible, and each maps onto what a real
/// network does: kDrop = lost datagram, kTimeout = stalled peer, kTruncate /
/// kDisconnect = connection reset mid-stream, kCorrupt = bit rot that CRC
/// must catch.

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/dispatcher.h"
#include "net/transport.h"

namespace mope::net {

/// A synchronous client<->server loop around a shared dispatcher. Create one
/// channel per logical connection; `NewTransport` hands out the client end
/// (several sequential transports model reconnection).
class InProcessChannel {
 public:
  /// `dispatcher` must outlive the channel and every transport it vends.
  explicit InProcessChannel(WireDispatcher* dispatcher)
      : dispatcher_(dispatcher) {}

  /// A fresh client transport over this channel (reconnect = new transport;
  /// buffered state from the previous connection is discarded).
  std::unique_ptr<Transport> NewTransport();

 private:
  class ClientTransport;

  WireDispatcher* dispatcher_;
};

/// Which misbehavior to inject, in terms of observable network failures.
enum class FaultKind : uint8_t {
  kNone = 0,
  kDropWrite,    ///< Swallow write number `arg` (0-based): that request
                 ///< never arrives.
  kFailWrite,    ///< Write number `arg` (0-based) returns Unavailable (send
                 ///< on a reset connection).
  kTimeoutRead,  ///< Read returns Unavailable (deadline expired).
  kTruncate,     ///< Deliver only the first `arg` reply bytes, then EOF.
  kCorrupt,      ///< XOR 0xFF into delivered byte number `arg` (0-based).
  kDisconnect,   ///< EOF after `arg` delivered bytes (peer hung up).
};

struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  /// Byte position/count for kTruncate / kCorrupt / kDisconnect; the index
  /// of the faulted write for kDropWrite / kFailWrite.
  uint64_t arg = 0;
};

/// Applies one FaultSpec to an inner transport, then behaves transparently.
/// Deliberately one fault per transport: RemoteConnection opens a fresh
/// transport per reconnect, so a scripted *sequence* of transports (each
/// with its own fault) models a flaky network deterministically.
class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(std::unique_ptr<Transport> inner, FaultSpec spec)
      : inner_(std::move(inner)), spec_(spec) {}

  Result<size_t> Read(char* buf, size_t max) override;
  Status Write(const char* data, size_t n) override;
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Transport> inner_;
  FaultSpec spec_;
  uint64_t bytes_delivered_ = 0;
  uint64_t writes_ = 0;  ///< Writes seen so far.
  bool fired_ = false;   ///< The one-shot read timeout spent?
};

}  // namespace mope::net

#endif  // MOPE_NET_INMEM_H_
