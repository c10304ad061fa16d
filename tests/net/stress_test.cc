/// \file stress_test.cc
/// Multi-threaded hammering of the server stack through the in-memory
/// transport: N client threads share one WireDispatcher (the same object a
/// TcpServer's worker pool shares) and mix range queries, stats fetches and
/// `\leakage`-style verdict reads while the live leakage auditor is on.
///
/// The point is not the answers (other tests pin those down) — it is that
/// the whole locked surface (dispatcher -> engine -> auditor -> registry)
/// survives concurrent clients. Under the tsan preset this test doubles as
/// a data-race probe, and because sanitizer builds force
/// MOPE_LOCK_RANK_CHECKS on, it also exercises the debug lock-rank
/// assertions along the full loopback call chain.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/interval.h"
#include "common/random.h"
#include "net/inmem.h"
#include "net/remote_connection.h"
#include "net/server.h"
#include "obs/leakage.h"

namespace mope::net {
namespace {

using engine::Column;
using engine::Schema;
using engine::ValueType;

constexpr uint64_t kDomain = 100;

engine::DbServer MakeAuditedServer() {
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "data", Schema({Column{"key", ValueType::kInt}}));
  EXPECT_TRUE(table.ok());
  for (int64_t k = 0; k < static_cast<int64_t>(kDomain); ++k) {
    EXPECT_TRUE((*table)->Insert({k}).ok());
  }
  EXPECT_TRUE((*table)->CreateIndex("key").ok());
  obs::LeakageAuditConfig audit;
  audit.space = kDomain;
  audit.domain = kDomain;
  audit.min_observations = 16;
  EXPECT_TRUE(server.EnableLeakageAudit(audit).ok());
  return server;
}

/// One client's wiring: a private channel (transports are single-threaded
/// by contract) over the shared dispatcher.
struct Client {
  explicit Client(WireDispatcher* dispatcher) : channel(dispatcher) {
    RemoteOptions options;
    options.backoff_initial_ms = 0;
    options.transport_factory = [this]() -> Result<std::unique_ptr<Transport>> {
      return std::unique_ptr<Transport>(channel.NewTransport());
    };
    connection = std::make_unique<RemoteConnection>(options);
  }

  InProcessChannel channel;
  std::unique_ptr<RemoteConnection> connection;
};

TEST(NetStressTest, ConcurrentClientsShareOneDispatcher) {
  engine::DbServer server = MakeAuditedServer();
  WireDispatcher dispatcher(&server);

  constexpr int kThreads = 8;
  constexpr int kIterations = 60;

  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(std::make_unique<Client>(&dispatcher));
  }

  std::atomic<int> failures{0};
  std::atomic<uint64_t> rows_seen{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5EED0000u + static_cast<uint64_t>(t));
      Client& client = *clients[static_cast<size_t>(t)];
      for (int i = 0; i < kIterations; ++i) {
        const uint64_t start = rng.UniformUint64(kDomain);
        const uint64_t length = 1 + rng.UniformUint64(kDomain / 4);
        auto rows = client.connection->ExecuteRangeBatch(
            "data", "key", {ModularInterval(start, length, kDomain)});
        if (!rows.ok()) {
          ++failures;
          continue;
        }
        rows_seen += rows->size();
        // Every few queries, read the stats endpoint and render the leakage
        // verdict from the snapshot — the `mope_shell \leakage` path.
        if (i % 8 == t % 8) {
          auto stats = client.connection->FetchServerStats();
          if (!stats.ok()) {
            ++failures;
            continue;
          }
          const std::string report = obs::LeakageAuditor::DescribeStats(*stats);
          if (report.empty()) ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(rows_seen.load(), 0u);
  // Every query funneled into the one engine; the auditor saw one range
  // start per ExecuteRangeBatch call.
  auto* auditor = server.leakage_auditor();
  ASSERT_NE(auditor, nullptr);
  EXPECT_EQ(auditor->Verdict().observations,
            static_cast<uint64_t>(kThreads) * kIterations);
}

/// 4 threads share one RemoteConnection. Every reply lands in the
/// connection's one receive buffer, guarded by its lock, so each thread
/// must get exactly the rows of its own ranges, whatever the others ask.
void ExpectEachThreadGetsItsOwnRows(RemoteConnection* connection) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 40;
  const ModularInterval keep_all(0, kDomain, kDomain);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        // Replies of different sizes, so a stale or foreign one shows.
        const uint64_t start = static_cast<uint64_t>(t * 25 + i) % kDomain;
        const uint64_t length = 1 + static_cast<uint64_t>((t + i) % 30);
        const ModularInterval range(start, length, kDomain);
        RowsWithIds rows;
        auto shipped = connection->FetchRangeBatch("data", "key", {range}, 0,
                                                   keep_all, &rows);
        bool ok = shipped.ok() && *shipped == length && rows.size() == length;
        for (const auto& [rid, row] : rows) {
          ok = ok && range.Contains(rid) &&
               row == engine::Row{static_cast<int64_t>(rid)};
        }
        auto count = connection->CountRangeBatch("data", "key", {range});
        ok = ok && count.ok() && *count == length;
        if (!ok) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(NetStressTest, ThreadsSharingAConnectionOverTheInProcessChannel) {
  engine::DbServer server = MakeAuditedServer();
  WireDispatcher dispatcher(&server);
  Client client(&dispatcher);
  ExpectEachThreadGetsItsOwnRows(client.connection.get());
}

TEST(NetStressTest, ThreadsSharingAConnectionOverTcp) {
  engine::DbServer server = MakeAuditedServer();
  TcpServerOptions options;
  options.num_workers = 2;
  options.poll_interval_ms = 5;
  auto tcp = TcpServer::Start(&server, options);
  ASSERT_TRUE(tcp.ok()) << tcp.status();
  RemoteOptions remote;
  remote.port = (*tcp)->port();
  remote.backoff_initial_ms = 0;
  // Sanitizer-slowed runs need headroom on the read deadline.
  remote.socket.read_timeout_ms = 60000;
  RemoteConnection connection(std::move(remote));
  ExpectEachThreadGetsItsOwnRows(&connection);
  (*tcp)->Stop();
}

/// Regression for the TcpServer::Stop missed-wakeup fix: a worker that had
/// just observed an empty queue (but not yet blocked) must still see the
/// stop flag. Before the fix, Stop() notified without ever holding
/// queue_mutex_, so that worker could sleep through the only NotifyAll and
/// Stop() would hang in join(). Rapid start/stop cycles make the window
/// wide enough to matter; with the fix this completes instantly.
TEST(NetStressTest, TcpServerStartStopCycles) {
  engine::DbServer server = MakeAuditedServer();
  for (int i = 0; i < 25; ++i) {
    TcpServerOptions options;
    options.num_workers = 4;
    options.poll_interval_ms = 5;
    auto tcp = TcpServer::Start(&server, options);
    ASSERT_TRUE(tcp.ok());
    (*tcp)->Stop();
  }
}

}  // namespace
}  // namespace mope::net
