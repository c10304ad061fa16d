#include "net/inmem.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <deque>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/remote_connection.h"
#include "net/wire.h"
#include "obs/registry.h"
#include "proxy/system.h"

namespace mope::net {
namespace {

using engine::Column;
using engine::Schema;
using engine::ValueType;

engine::DbServer MakeServer() {
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "data", Schema({Column{"key", ValueType::kInt}}));
  EXPECT_TRUE(table.ok());
  for (int64_t k = 0; k < 100; ++k) {
    EXPECT_TRUE((*table)->Insert({k}).ok());
  }
  EXPECT_TRUE((*table)->CreateIndex("key").ok());
  return server;
}

/// Wiring for one flaky-network scenario: every (re)connect pops the next
/// FaultSpec off the script; once the script runs dry, connections are clean.
struct FlakyNet {
  explicit FlakyNet(engine::DbServer* server, std::vector<FaultSpec> script)
      : dispatcher(server), channel(&dispatcher),
        faults(script.begin(), script.end()) {}

  RemoteOptions Options(uint32_t max_retries) {
    RemoteOptions options;
    options.max_retries = max_retries;
    options.backoff_initial_ms = 0;  // keep tests instant
    options.transport_factory =
        [this]() -> Result<std::unique_ptr<Transport>> {
      FaultSpec spec;
      if (!faults.empty()) {
        spec = faults.front();
        faults.pop_front();
      }
      return std::unique_ptr<Transport>(std::make_unique<FaultInjectingTransport>(
          channel.NewTransport(), spec));
    };
    return options;
  }

  WireDispatcher dispatcher;
  InProcessChannel channel;
  std::deque<FaultSpec> faults;
};

const std::vector<ModularInterval> kRanges = {ModularInterval(10, 5, 100)};

TEST(FaultTest, CleanChannelWorks) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {});
  RemoteConnection conn(net.Options(0));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(conn.retries(), 0u);
  EXPECT_EQ(conn.connects(), 1u);
}

TEST(FaultTest, DroppedRequestIsRetried) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {{FaultKind::kDropWrite, 0}});
  RemoteConnection conn(net.Options(3));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(conn.retries(), 1u);
  EXPECT_EQ(conn.connects(), 2u);  // reconnected after the loss
}

TEST(FaultTest, FailedWriteIsRetried) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {{FaultKind::kFailWrite, 0}});
  RemoteConnection conn(net.Options(3));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(conn.retries(), 1u);
}

TEST(FaultTest, ReadTimeoutIsRetried) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {{FaultKind::kTimeoutRead, 0}});
  RemoteConnection conn(net.Options(3));
  auto count = conn.CountRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 5u);
  EXPECT_EQ(conn.retries(), 1u);
}

TEST(FaultTest, TruncatedReplyIsRetried) {
  engine::DbServer server = MakeServer();
  // Cut the reply off inside the frame header.
  FlakyNet net(&server, {{FaultKind::kTruncate, 7}});
  RemoteConnection conn(net.Options(3));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(conn.retries(), 1u);
}

TEST(FaultTest, MidReplyDisconnectIsRetried) {
  engine::DbServer server = MakeServer();
  // Hang up after the header: the payload never arrives.
  FlakyNet net(&server, {{FaultKind::kDisconnect, kFrameHeaderBytes}});
  RemoteConnection conn(net.Options(3));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(conn.retries(), 1u);
}

TEST(FaultTest, CorruptedReplyFailsFastAsCorruption) {
  engine::DbServer server = MakeServer();
  // Flip a payload byte: CRC must catch it, and the client must NOT retry —
  // a corrupted stream is a bug or an attack, not a transient outage.
  FlakyNet net(&server, {{FaultKind::kCorrupt, kFrameHeaderBytes + 2}});
  RemoteConnection conn(net.Options(5));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsCorruption()) << rows.status().ToString();
  EXPECT_EQ(conn.retries(), 0u);
}

TEST(FaultTest, BackToBackFaultsExhaustRetries) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {{FaultKind::kTimeoutRead, 0},
                         {FaultKind::kDropWrite, 0},
                         {FaultKind::kTimeoutRead, 0},
                         {FaultKind::kTimeoutRead, 0}});
  RemoteConnection conn(net.Options(2));  // 1 try + 2 retries < 4 faults
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsUnavailable()) << rows.status().ToString();
  EXPECT_EQ(conn.retries(), 2u);
  EXPECT_EQ(conn.connects(), 3u);
}

TEST(FaultTest, RecoversAfterSeveralFailures) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {{FaultKind::kTimeoutRead, 0},
                         {FaultKind::kTruncate, 3},
                         {FaultKind::kDropWrite, 0}});
  RemoteConnection conn(net.Options(3));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(conn.retries(), 3u);
  EXPECT_EQ(conn.connects(), 4u);
}

TEST(FaultTest, ServerSideErrorIsReturnedVerbatimNotRetried) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {});
  RemoteConnection conn(net.Options(5));
  auto rows = conn.ExecuteRangeBatch("no_such_table", "key", kRanges);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsNotFound()) << rows.status().ToString();
  EXPECT_EQ(conn.retries(), 0u);  // an answer, not an outage
}

TEST(FaultTest, ConnectionSurvivesAcrossRequests) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {});
  RemoteConnection conn(net.Options(0));
  ASSERT_TRUE(conn.ExecuteRangeBatch("data", "key", kRanges).ok());
  ASSERT_TRUE(conn.GetSchema("data").ok());
  ASSERT_TRUE(conn.CountRangeBatch("data", "key", kRanges).ok());
  EXPECT_EQ(conn.connects(), 1u);  // one stream, three requests
}

TEST(FaultTest, CountsArePerConnection) {
  // Two connections sharing one registry: the registry sums them, each
  // accessor reports its own connection only.
  engine::DbServer server = MakeServer();
  obs::MetricsRegistry registry;
  FlakyNet flaky(&server, {{FaultKind::kTimeoutRead, 0}});
  FlakyNet clean(&server, {});
  RemoteOptions flaky_options = flaky.Options(3);
  RemoteOptions clean_options = clean.Options(3);
  flaky_options.registry = &registry;
  clean_options.registry = &registry;
  RemoteConnection a(std::move(flaky_options));
  RemoteConnection b(std::move(clean_options));
  ASSERT_TRUE(a.ExecuteRangeBatch("data", "key", kRanges).ok());
  ASSERT_TRUE(b.ExecuteRangeBatch("data", "key", kRanges).ok());
  EXPECT_EQ(a.retries(), 1u);
  EXPECT_EQ(a.connects(), 2u);
  EXPECT_EQ(b.retries(), 0u);
  EXPECT_EQ(b.connects(), 1u);
  EXPECT_EQ(registry.GetCounter("net.client.retries")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("net.client.connects")->Value(), 3u);
}

TEST(InProcessChannelTest, LongLivedTransportKeepsOnlyUnreadReplies) {
  // One transport carries 100 round trips of a ~1 MB reply. Replies already
  // read must be freed, so heap in use stays within a few reply sizes
  // instead of growing by one reply per trip.
  constexpr int64_t kRows = 10000;
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "blobs", Schema({Column{"key", ValueType::kInt},
                       Column{"blob", ValueType::kString}}));
  ASSERT_TRUE(table.ok());
  for (int64_t k = 0; k < kRows; ++k) {
    ASSERT_TRUE((*table)->Insert({k, std::string(100, 'x')}).ok());
  }
  ASSERT_TRUE((*table)->CreateIndex("key").ok());
  obs::MetricsRegistry registry;
  FlakyNet net(&server, {});
  RemoteOptions options = net.Options(0);
  options.registry = &registry;
  RemoteConnection conn(std::move(options));
  const std::vector<ModularInterval> all = {
      ModularInterval(0, kRows, kRows)};
  obs::Counter* received = registry.GetCounter("net.client.bytes_received");

  ASSERT_TRUE(conn.ExecuteRangeBatch("blobs", "key", all).ok());
  const uint64_t reply_bytes = received->Value();
  ASSERT_GT(reply_bytes, 1000000u);
  // Heap in use: arena chunks plus the mmap()ed ones large buffers get.
  auto heap_in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const size_t heap_after_first = heap_in_use();
  for (int trip = 1; trip < 100; ++trip) {
    auto rows = conn.ExecuteRangeBatch("blobs", "key", all);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), static_cast<size_t>(kRows));
  }
  EXPECT_EQ(received->Value(), 100 * reply_bytes);
  EXPECT_EQ(conn.connects(), 1u);
  const size_t heap_after_last = heap_in_use();
  EXPECT_LT(heap_after_last, heap_after_first + 4 * reply_bytes)
      << "heap grew from " << heap_after_first << " to " << heap_after_last
      << " bytes over 99 replies of " << reply_bytes << " bytes";
}

// --- The whole proxy stack over a flaky wire ------------------------------

TEST(FaultTest, EncryptedQueriesSucceedOverFlakyWire) {
  // Full MOPE pipeline — key generation, encryption, fakes, batching,
  // filtering — with every server round trip running through the wire
  // protocol over a network that times out and drops the first requests.
  proxy::MopeSystem system(/*seed=*/123);
  auto net = std::make_shared<FlakyNet>(
      system.server(), std::vector<FaultSpec>{{FaultKind::kTimeoutRead, 0},
                                              {FaultKind::kDropWrite, 0}});
  system.set_connection_factory(
      [net]() -> Result<std::unique_ptr<proxy::ServerConnection>> {
        return std::unique_ptr<proxy::ServerConnection>(
            std::make_unique<RemoteConnection>(net->Options(4)));
      });

  std::vector<engine::Row> rows;
  for (int64_t v = 0; v < 64; ++v) rows.push_back({v});
  proxy::EncryptedColumnSpec spec;
  spec.column = "key";
  spec.domain = 64;
  spec.k = 4;
  spec.mode = proxy::QueryMode::kAdaptiveUniform;
  ASSERT_TRUE(system
                  .LoadTable("data", Schema({Column{"key", ValueType::kInt}}),
                             rows, spec)
                  .ok());

  auto response = system.Query("data", "key", {10, 13});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->rows.size(), 4u);
  std::set<int64_t> got;
  for (const engine::Row& row : response->rows) {
    got.insert(std::get<int64_t>(row[0]));
  }
  EXPECT_EQ(got, (std::set<int64_t>{10, 11, 12, 13}));
}

}  // namespace
}  // namespace mope::net
