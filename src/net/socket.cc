#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mope::net {

namespace {

Status ErrnoStatus(const std::string& what, int err) {
  // strerror's static buffer is fine here: every caller passes a just-read
  // errno from its own thread and the string is copied out immediately; the
  // racy alternative (strerror_l / GNU strerror_r) buys nothing for these
  // advisory messages.
  return Status::Unavailable(
      what + ": " + std::strerror(err));  // NOLINT(concurrency-mt-unsafe)
}

/// "localhost" or dotted-quad IPv4 only — no DNS (see file comment).
Result<sockaddr_in> ResolveIpv4(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = (host == "localhost") ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        "host must be 'localhost' or a numeric IPv4 address, got '" + host +
        "'");
  }
  return addr;
}

/// Polls `fd` for `events` within `timeout_ms`. Returns false on timeout.
Result<bool> PollFd(int fd, short events, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    return ErrnoStatus("poll", errno);
  }
}

}  // namespace

Result<size_t> SocketTransport::Read(char* buf, size_t max) {
  if (fd_ < 0) return Status::Unavailable("socket closed");
  while (true) {
    MOPE_ASSIGN_OR_RETURN(bool ready,
                          PollFd(fd_, POLLIN, options_.read_timeout_ms));
    if (!ready) return Status::Unavailable("read deadline expired");
    const ssize_t n = ::recv(fd_, buf, max, 0);
    if (n > 0) return static_cast<size_t>(n);
    if (n == 0) return static_cast<size_t>(0);  // orderly EOF
    // EAGAIN after a positive poll is a spurious wakeup on the non-blocking
    // fd; re-arm the poll rather than spin on recv.
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return ErrnoStatus("recv", errno);
  }
}

Status SocketTransport::Write(const char* data, size_t n) {
  if (fd_ < 0) return Status::Unavailable("socket closed");
  size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer hanging up must surface as a Status, not SIGPIPE.
    const ssize_t rc = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (rc >= 0) {
      sent += static_cast<size_t>(rc);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // The fd is non-blocking, so a peer that stops reading surfaces here
      // instead of wedging the thread inside send().
      MOPE_ASSIGN_OR_RETURN(bool ready,
                            PollFd(fd_, POLLOUT, options_.write_timeout_ms));
      if (!ready) return Status::Unavailable("write deadline expired");
      continue;
    }
    return ErrnoStatus("send", errno);
  }
  return Status::OK();
}

void SocketTransport::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<bool> SocketTransport::Poll(int timeout_ms) {
  if (fd_ < 0) return Status::Unavailable("socket closed");
  return PollFd(fd_, POLLIN, timeout_ms);
}

Result<uint16_t> ParsePort(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty port");
  uint32_t port = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("port must be digits only, got '" +
                                     std::string(text) + "'");
    }
    port = port * 10 + static_cast<uint32_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("port out of range: '" +
                                     std::string(text) + "'");
    }
  }
  return static_cast<uint16_t>(port);
}

Result<std::unique_ptr<SocketTransport>> ConnectTcp(
    const std::string& host, uint16_t port, const SocketOptions& options) {
  MOPE_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveIpv4(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);

  // Non-blocking connect bounded by the connect deadline.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("connect to " + host + ":" + std::to_string(port), err);
  }
  if (rc != 0) {
    auto ready = PollFd(fd, POLLOUT, options.connect_timeout_ms);
    if (!ready.ok() || !*ready) {
      ::close(fd);
      return ready.ok() ? Status::Unavailable("connect to " + host + ":" +
                                              std::to_string(port) +
                                              " timed out")
                        : ready.status();
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      ::close(fd);
      return ErrnoStatus("connect to " + host + ":" + std::to_string(port),
                         so_error != 0 ? so_error : errno);
    }
  }
  // The fd stays O_NONBLOCK for its whole life: Read/Write bound every wait
  // with poll(2), and a blocking send() could wedge a thread forever behind
  // a peer that never drains its receive buffer.

  // Small request/reply frames: latency beats Nagle batching.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketTransport>(fd, options);
}

Result<std::unique_ptr<TcpListener>> TcpListener::Bind(const std::string& host,
                                                       uint16_t port) {
  MOPE_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveIpv4(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("bind " + host + ":" + std::to_string(port), err);
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("listen", err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("getsockname", err);
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(bound.sin_port)));
}

Result<std::unique_ptr<SocketTransport>> TcpListener::Accept(
    int timeout_ms, const SocketOptions& options) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return Status::Unavailable("listener closed");
  MOPE_ASSIGN_OR_RETURN(bool ready, PollFd(fd, POLLIN, timeout_ms));
  if (!ready) return std::unique_ptr<SocketTransport>(nullptr);
  while (true) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) {
      // Non-blocking like ConnectTcp's fds: session writes must hit the
      // poll-based write deadline, not block in send() forever.
      const int flags = ::fcntl(client, F_GETFL, 0);
      ::fcntl(client, F_SETFL, flags | O_NONBLOCK);
      int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return std::make_unique<SocketTransport>(client, options);
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("accept", errno);
  }
}

void TcpListener::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

}  // namespace mope::net
