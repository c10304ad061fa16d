#ifndef MOPE_NET_REMOTE_CONNECTION_H_
#define MOPE_NET_REMOTE_CONNECTION_H_

/// \file remote_connection.h
/// The proxy's client end of the wire protocol.
///
/// RemoteConnection implements proxy::ServerConnection over any Transport
/// factory (TCP in production, in-memory channels in tests), making the
/// proxy location-transparent: the same Proxy code runs against an embedded
/// engine, a daemon on localhost, or a server across a network.
///
/// Failure policy, in one place (nothing above this class retries):
///   - transient errors (kUnavailable: timeouts, resets, mid-reply EOF) are
///     retried up to max_retries times with capped exponential backoff,
///     reconnecting each time — every request is an idempotent read, so a
///     retry after a half-finished exchange is always safe;
///   - Corruption (CRC mismatch, bad framing) fails fast: a corrupted
///     stream is a bug or an attack, not weather;
///   - server-side application errors arrive as kStatusReply frames and are
///     returned verbatim, never retried.
///
/// Under an active obs::Trace every request carries the trace id and asks
/// for a profile; what the server credited to that id comes back in the
/// reply and is added into the trace, next to the connection's own
/// `net.client.*` counters. A profile attributed to another trace is
/// Corruption.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "proxy/connection.h"

namespace mope::net {

struct RemoteOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  SocketOptions socket;  ///< Connect/read deadlines for TCP transports.

  /// Extra attempts after the first on transient failures.
  uint32_t max_retries = 3;
  /// Backoff before retry i is min(initial << i, max) milliseconds.
  int backoff_initial_ms = 5;
  int backoff_max_ms = 250;

  /// Where the connection's `net.client.*` counters and round-trip latency
  /// histogram live. nullptr = the process-global obs::Registry(). A
  /// MopeSystem passes its own registry so client- and server-side metrics
  /// stay separate even when both ends share one test process.
  obs::MetricsRegistry* registry = nullptr;
  /// Times round trips; nullptr = obs::SystemClock().
  obs::Clock* clock = nullptr;

  /// Opens the underlying stream; defaults to ConnectTcp(host, port).
  /// Tests substitute in-memory or fault-injecting transports here.
  std::function<Result<std::unique_ptr<Transport>>()> transport_factory;
};

class RemoteConnection final : public proxy::ServerConnection {
 public:
  explicit RemoteConnection(RemoteOptions options);

  Result<std::vector<std::pair<engine::RowId, engine::Row>>>
  ExecuteRangeBatch(const std::string& table, const std::string& column,
                    const std::vector<ModularInterval>& ranges) override;

  /// Decodes the reply with the filtered decoder: every byte is checked,
  /// only the kept rows are built.
  Result<uint64_t> FetchRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges, size_t key_column,
      const ModularInterval& keep,
      std::vector<std::pair<engine::RowId, engine::Row>>* kept) override;

  Result<uint64_t> CountRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override;

  Result<engine::Schema> GetSchema(const std::string& table) override;

  /// Asks the server for its metrics registry (kStatsRequest round trip).
  Result<std::vector<std::pair<std::string, uint64_t>>> FetchServerStats()
      override;

  /// Retry attempts this connection performed so far.
  uint64_t retries() const;
  /// This connection's successful (re)connects: 0 until first use.
  uint64_t connects() const;

 private:
  /// Sends one request and returns `decode(payload)` for the payload of its
  /// `expected_reply`. The payload views reply_, which the next request
  /// overwrites, so `decode` runs under the connection's lock.
  template <typename Decode>
  std::invoke_result_t<const Decode&, std::string_view> RoundTrip(
      MessageType request_type, std::string payload,
      MessageType expected_reply, const Decode& decode) MOPE_EXCLUDES(mutex_);
  Status EnsureConnectedLocked() MOPE_REQUIRES(mutex_);
  void DisconnectLocked() MOPE_REQUIRES(mutex_);

  RemoteOptions options_;
  obs::Clock* clock_;
  mutable Mutex mutex_{
      lock_rank::kClientConnection};  ///< One in-flight request per connection.
  std::unique_ptr<Transport> transport_ MOPE_GUARDED_BY(mutex_);
  /// The receive buffer: every reply frame is read into it, so it stays at
  /// the largest reply's size for the connection's life and a reply costs
  /// no allocation once it has grown.
  std::string reply_ MOPE_GUARDED_BY(mutex_);
  // Registry counters (atomic targets), deliberately *not* annotated with the
  // connection mutex: mutex_ is held across retry backoff sleeps (up to
  // seconds), and stats readers — retries()/connects() below, and any
  // registry snapshot — must never block behind a retrying request. Guarding
  // them would force those readers to take mutex_, which is exactly the
  // coupling this split exists to prevent.
  obs::Counter* retries_;
  obs::Counter* connects_;
  // The same two counts for this connection alone: the registry counters
  // sum over every connection that shares the registry.
  std::atomic<uint64_t> retry_count_{0};
  std::atomic<uint64_t> connect_count_{0};
  obs::Counter* roundtrips_;
  obs::Counter* bytes_sent_;
  obs::Counter* bytes_received_;
  obs::ExpHistogram* roundtrip_ns_;
};

/// `defaults` aimed at a "host:port" address over TCP: the host is
/// everything before the last ':' and must not be empty, the port is
/// ParsePort's. The transport factory is cleared, so a RemoteConnection
/// built from the result dials that address. InvalidArgument otherwise.
Result<RemoteOptions> RemoteOptionsFor(std::string_view host_port,
                                       RemoteOptions defaults = {});

/// A ServerConnection that routes every request through the complete wire
/// path — encode, frame, CRC, dispatch, decode — against an in-process
/// DbServer, deterministically and without sockets. Used by benches to
/// measure honest wire bandwidth and by tests as the no-kernel baseline.
/// The returned connection owns its dispatcher and channel; `server` must
/// outlive it.
std::unique_ptr<proxy::ServerConnection> MakeLoopbackWireConnection(
    engine::DbServer* server);

}  // namespace mope::net

#endif  // MOPE_NET_REMOTE_CONNECTION_H_
