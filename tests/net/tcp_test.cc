#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/remote_connection.h"
#include "net/socket.h"
#include "net/wire.h"

namespace mope::net {
namespace {

using engine::Column;
using engine::Schema;
using engine::ValueType;

engine::DbServer MakeServer() {
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "data", Schema({Column{"key", ValueType::kInt},
                      Column{"tag", ValueType::kString}}));
  EXPECT_TRUE(table.ok());
  for (int64_t k = 0; k < 200; ++k) {
    EXPECT_TRUE((*table)->Insert({k, std::string("row")}).ok());
  }
  EXPECT_TRUE((*table)->CreateIndex("key").ok());
  return server;
}

RemoteOptions LoopbackOptions(uint16_t port) {
  RemoteOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.max_retries = 2;
  options.backoff_initial_ms = 1;
  return options;
}

TEST(TcpTest, RequestReplyOverLoopback) {
  engine::DbServer db = MakeServer();
  auto daemon = TcpServer::Start(&db, TcpServerOptions{});
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  ASSERT_NE((*daemon)->port(), 0);  // ephemeral port was resolved

  RemoteConnection conn(LoopbackOptions((*daemon)->port()));
  auto rows =
      conn.ExecuteRangeBatch("data", "key", {ModularInterval(10, 5, 200)});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  auto count =
      conn.CountRangeBatch("data", "key", {ModularInterval(190, 20, 200)});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 20u);
  auto schema = conn.GetSchema("data");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_columns(), 2u);

  (*daemon)->Stop();
  EXPECT_GE((*daemon)->connections_accepted(), 1u);
  EXPECT_EQ((*daemon)->frames_served(), 3u);
  EXPECT_GT(db.stats().bytes_received, 0u);
  EXPECT_GT(db.stats().bytes_sent, 0u);
}

TEST(TcpTest, ServerErrorComesBackAsStatus) {
  engine::DbServer db = MakeServer();
  auto daemon = TcpServer::Start(&db, TcpServerOptions{});
  ASSERT_TRUE(daemon.ok());
  RemoteConnection conn(LoopbackOptions((*daemon)->port()));
  auto rows =
      conn.ExecuteRangeBatch("nope", "key", {ModularInterval(0, 1, 200)});
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsNotFound()) << rows.status().ToString();
}

TEST(TcpTest, GarbageBytesOnlyCostTheirOwnConnection) {
  engine::DbServer db = MakeServer();
  auto daemon = TcpServer::Start(&db, TcpServerOptions{});
  ASSERT_TRUE(daemon.ok());

  // A hostile client spews non-protocol bytes; the daemon must drop that
  // session and keep serving everyone else.
  {
    auto hostile = ConnectTcp("127.0.0.1", (*daemon)->port(), SocketOptions{});
    ASSERT_TRUE(hostile.ok()) << hostile.status().ToString();
    ASSERT_TRUE((*hostile)->Write("GET / HTTP/1.1\r\n\r\n", 18).ok());
    char buf[64];
    // Server closes on the framing violation: EOF or reset, never a reply.
    auto got = (*hostile)->Read(buf, sizeof buf);
    EXPECT_TRUE(!got.ok() || *got == 0);
    (*hostile)->Close();
  }

  RemoteConnection conn(LoopbackOptions((*daemon)->port()));
  auto rows =
      conn.ExecuteRangeBatch("data", "key", {ModularInterval(0, 3, 200)});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
}

TEST(TcpTest, IdleSessionsAreClosedAndFreeTheirWorker) {
  engine::DbServer db = MakeServer();
  TcpServerOptions options;
  options.num_workers = 1;  // one idle client would otherwise starve everyone
  options.poll_interval_ms = 10;
  options.idle_timeout_ms = 50;
  auto daemon = TcpServer::Start(&db, options);
  ASSERT_TRUE(daemon.ok());

  // A client that connects and then says nothing must be hung up on.
  auto idle = ConnectTcp("127.0.0.1", (*daemon)->port(), SocketOptions{});
  ASSERT_TRUE(idle.ok()) << idle.status().ToString();
  char buf[16];
  auto got = (*idle)->Read(buf, sizeof buf);  // blocks until the server acts
  EXPECT_TRUE(!got.ok() || *got == 0);        // EOF or reset, not a timeout
  (*idle)->Close();

  // The lone worker is free again: a real client gets served.
  RemoteConnection conn(LoopbackOptions((*daemon)->port()));
  auto rows =
      conn.ExecuteRangeBatch("data", "key", {ModularInterval(0, 3, 200)});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
}

TEST(TcpTest, FullPendingQueueShedsConnectionsInsteadOfQueueing) {
  engine::DbServer db = MakeServer();
  TcpServerOptions options;
  options.max_pending_sessions = 0;  // degenerate bound: shed every accept
  auto daemon = TcpServer::Start(&db, options);
  ASSERT_TRUE(daemon.ok());

  auto shed = ConnectTcp("127.0.0.1", (*daemon)->port(), SocketOptions{});
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  char buf[16];
  auto got = (*shed)->Read(buf, sizeof buf);
  EXPECT_TRUE(!got.ok() || *got == 0);  // closed at accept, never served
  (*shed)->Close();
  EXPECT_GE((*daemon)->connections_rejected(), 1u);
}

TEST(TcpTest, QueriesAfterStopFailCleanly) {
  engine::DbServer db = MakeServer();
  auto daemon = TcpServer::Start(&db, TcpServerOptions{});
  ASSERT_TRUE(daemon.ok());
  const uint16_t port = (*daemon)->port();

  RemoteConnection conn(LoopbackOptions(port));
  ASSERT_TRUE(
      conn.ExecuteRangeBatch("data", "key", {ModularInterval(0, 1, 200)})
          .ok());
  (*daemon)->Stop();

  // The daemon is gone: the next request must fail with a transport error,
  // not hang and not crash.
  auto rows =
      conn.ExecuteRangeBatch("data", "key", {ModularInterval(0, 1, 200)});
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsUnavailable()) << rows.status().ToString();
}

TEST(TcpTest, StopIsIdempotent) {
  engine::DbServer db = MakeServer();
  auto daemon = TcpServer::Start(&db, TcpServerOptions{});
  ASSERT_TRUE(daemon.ok());
  (*daemon)->Stop();
  (*daemon)->Stop();  // and ~TcpServer calls it a third time
}

TEST(TcpTest, ConnectToClosedPortIsUnavailable) {
  // Bind-then-close to get a port that is very likely unused.
  uint16_t dead_port = 0;
  {
    auto listener = TcpListener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    dead_port = (*listener)->port();
  }
  SocketOptions options;
  options.connect_timeout_ms = 500;
  auto conn = ConnectTcp("127.0.0.1", dead_port, options);
  ASSERT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsUnavailable()) << conn.status().ToString();
}

TEST(TcpTest, DnsNamesOtherThanLocalhostAreRejected) {
  auto conn = ConnectTcp("example.com", 80, SocketOptions{});
  ASSERT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsInvalidArgument());
}

TEST(ParsePortTest, DigitsOnlyUpTo65535) {
  // mope_serverd's --port and --http-port and every "host:port" string
  // share this parser; strtoul would accept the signed and padded forms.
  for (const char* bad : {"", "+5", " 5", "5 ", "-1", "0x10", "65536",
                          "99999", "18446744073709551621"}) {
    EXPECT_TRUE(ParsePort(bad).status().IsInvalidArgument()) << bad;
  }
  EXPECT_EQ(ParsePort("0").value(), 0);
  EXPECT_EQ(ParsePort("05811").value(), 5811);
  EXPECT_EQ(ParsePort("65535").value(), 65535);
}

TEST(TcpTest, ConcurrentClientsSeeConsistentData) {
  engine::DbServer db = MakeServer();
  TcpServerOptions options;
  options.num_workers = 4;
  auto daemon = TcpServer::Start(&db, options);
  ASSERT_TRUE(daemon.ok());
  const uint16_t port = (*daemon)->port();

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([port, c, &failures]() {
      RemoteOptions remote = LoopbackOptions(port);
      // Waiting for a free worker counts against the read deadline; give
      // sanitizer-slowed runs plenty of headroom.
      remote.socket.read_timeout_ms = 60000;
      RemoteConnection conn(std::move(remote));
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const uint64_t start = static_cast<uint64_t>((c * 31 + i * 7) % 200);
        auto count = conn.CountRangeBatch(
            "data", "key", {ModularInterval(start, 10, 200)});
        if (!count.ok() || *count != 10) {
          ++failures;
          continue;
        }
        auto rows = conn.ExecuteRangeBatch(
            "data", "key", {ModularInterval(start, 3, 200)});
        if (!rows.ok() || rows->size() != 3) ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Retries can only add frames, never lose them.
  EXPECT_GE((*daemon)->frames_served(),
            static_cast<uint64_t>(kClients * kRequestsPerClient * 2));
  (*daemon)->Stop();
}

}  // namespace
}  // namespace mope::net
