#ifndef MOPE_NET_SOCKET_H_
#define MOPE_NET_SOCKET_H_

/// \file socket.h
/// POSIX TCP transports. The only file pair in the tree allowed to touch
/// raw sockets (tools/check_invariants.py bans socket/send/recv elsewhere);
/// everything above speaks net::Transport.
///
/// Deadlines are relative poll(2) timeouts — no wall-clock reads, keeping
/// src/ bit-deterministic outside the kernel's own scheduling. Host names
/// are resolved locally ("localhost" and dotted-quad IPv4 only): the MOPE
/// deployment model is proxy and DBMS in one trust boundary's network, and
/// refusing DNS keeps connect behavior deterministic and offline-safe.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/transport.h"

namespace mope::net {

struct SocketOptions {
  int connect_timeout_ms = 5000;
  /// Per-Read deadline; expiry returns Unavailable (retryable).
  int read_timeout_ms = 5000;
  /// Per-Write deadline once the kernel send buffer is full (peer not
  /// draining); expiry returns Unavailable. Sockets stay non-blocking for
  /// their whole life so this deadline is actually reachable.
  int write_timeout_ms = 5000;
};

/// A connected TCP stream.
class SocketTransport final : public Transport {
 public:
  /// Takes ownership of connected descriptor `fd`.
  SocketTransport(int fd, SocketOptions options)
      : fd_(fd), options_(options) {}
  ~SocketTransport() override { Close(); }

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  Result<size_t> Read(char* buf, size_t max) override;
  Status Write(const char* data, size_t n) override;
  void Close() override;

  /// Waits up to `timeout_ms` for readable data (or EOF). False on timeout.
  /// Lets a server session block in short slices so it can notice shutdown.
  Result<bool> Poll(int timeout_ms);

 private:
  int fd_;
  SocketOptions options_;
};

/// Parses a TCP port: ParseUnsigned's decimal form (common/parse.h), at
/// most 65535; anything else is InvalidArgument. The one port syntax of the
/// tree, for command-line flags and "host:port" strings alike.
Result<uint16_t> ParsePort(std::string_view text);

/// Connects to host:port within the connect deadline.
Result<std::unique_ptr<SocketTransport>> ConnectTcp(const std::string& host,
                                                    uint16_t port,
                                                    const SocketOptions& options);

/// A listening TCP socket.
class TcpListener {
 public:
  /// Binds and listens; `port` 0 picks an ephemeral port (see port()).
  static Result<std::unique_ptr<TcpListener>> Bind(const std::string& host,
                                                   uint16_t port);
  ~TcpListener() { Close(); }

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  uint16_t port() const { return port_; }

  /// Waits up to `timeout_ms` for a connection. Returns nullptr on timeout
  /// (poll again; lets the accept loop notice shutdown), Unavailable once
  /// the listener is closed.
  Result<std::unique_ptr<SocketTransport>> Accept(int timeout_ms,
                                                  const SocketOptions& options);

  /// Thread-safe against a concurrent Accept: the accept loop observes the
  /// closed fd on its next poll timeout and returns Unavailable.
  void Close();

 private:
  TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}

  std::atomic<int> fd_;
  uint16_t port_;
};

}  // namespace mope::net

#endif  // MOPE_NET_SOCKET_H_
