#include "proxy/connection.h"

#include <gtest/gtest.h>

#include <set>

#include "proxy/proxy.h"

namespace mope::proxy {
namespace {

using engine::Column;
using engine::DbServer;
using engine::Row;
using engine::RowId;
using engine::Schema;
using engine::ValueType;

constexpr uint64_t kDomain = 64;

/// Test double: fails the first `failures` range requests, then delegates
/// to the real server.
class FlakyConnection final : public ServerConnection {
 public:
  FlakyConnection(DbServer* server, int failures)
      : real_(server), failures_left_(failures) {}

  Result<std::vector<std::pair<RowId, Row>>> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    ++requests_;
    if (failures_left_ > 0) {
      --failures_left_;
      return Status::Internal("simulated network failure");
    }
    return real_.ExecuteRangeBatch(table, column, ranges);
  }

  Result<engine::Schema> GetSchema(const std::string& table) override {
    return real_.GetSchema(table);
  }

  int requests() const { return requests_; }

 private:
  DirectConnection real_;
  int failures_left_;
  int requests_ = 0;
};

struct Fixture {
  explicit Fixture(uint64_t seed = 77) : rng(seed) {
    auto table = server.catalog()->CreateTable(
        "data", Schema({Column{"key", ValueType::kInt}}));
    EXPECT_TRUE(table.ok());
    key = ope::MopeKey::Generate(kDomain, &rng);
    params = ope::OpeParams{kDomain, ope::SuggestRange(kDomain)};
    auto scheme = ope::MopeScheme::Create(params, key);
    EXPECT_TRUE(scheme.ok());
    for (uint64_t v = 0; v < kDomain; ++v) {
      EXPECT_TRUE((*table)->Insert({static_cast<int64_t>(
                                       scheme->Encrypt(v).value())})
                      .ok());
    }
    EXPECT_TRUE((*table)->CreateIndex("key").ok());
  }

  ProxyConfig Config() const {
    ProxyConfig config;
    config.table = "data";
    config.column = "key";
    config.domain = kDomain;
    config.k = 4;
    config.mode = QueryMode::kPassthrough;
    return config;
  }

  DbServer server;
  Rng rng;
  ope::MopeKey key;
  ope::OpeParams params;
};

TEST(ConnectionTest, DirectConnectionDelegates) {
  Fixture fx;
  DirectConnection conn(&fx.server);
  auto schema = conn.GetSchema("data");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_columns(), 1u);
  auto rows = conn.ExecuteRangeBatch(
      "data", "key", {ModularInterval(0, fx.params.range, fx.params.range)});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), kDomain);
}

TEST(ConnectionTest, ZeroRetriesFailsImmediately) {
  // The proxy never re-sends a batch (retries belong to the connection): a
  // failed request fails the query after exactly one request.
  Fixture fx;
  auto flaky = std::make_unique<FlakyConnection>(&fx.server, 1);
  FlakyConnection* flaky_raw = flaky.get();
  auto proxy = Proxy::Create(fx.Config(), fx.key, fx.params, std::move(flaky));
  ASSERT_TRUE(proxy.ok());
  EXPECT_FALSE((*proxy)->ExecuteRange({10, 13}).ok());
  EXPECT_EQ(flaky_raw->requests(), 1);
}

TEST(ConnectionTest, RotationUnavailableOverCustomConnection) {
  Fixture fx;
  auto proxy = Proxy::Create(fx.Config(), fx.key, fx.params,
                             std::make_unique<FlakyConnection>(&fx.server, 0));
  ASSERT_TRUE(proxy.ok());
  Rng rng(1);
  EXPECT_TRUE((*proxy)->RotateKey(&rng).status().IsNotSupported());
}

TEST(ConnectionTest, RetriedBatchesDoNotDuplicateRows) {
  // A query its caller re-sends after a failure returns each row once, and
  // so do overlapping pieces: [58, 63] with k = 4 is [58, 61] and the tail
  // piece shifted back to [60, 63], so rows 60 and 61 are shipped twice.
  Fixture fx;
  auto proxy = Proxy::Create(fx.Config(), fx.key, fx.params,
                             std::make_unique<FlakyConnection>(&fx.server, 1));
  ASSERT_TRUE(proxy.ok());
  ASSERT_FALSE((*proxy)->ExecuteRange({58, 63}).ok());
  auto resp = (*proxy)->ExecuteRange({58, 63});
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->rows_received, 8u);
  std::set<int64_t> keys;
  for (const Row& row : resp->rows) keys.insert(std::get<int64_t>(row[0]));
  EXPECT_EQ(resp->rows.size(), 6u);
  EXPECT_EQ(keys, (std::set<int64_t>{58, 59, 60, 61, 62, 63}));
}

}  // namespace
}  // namespace mope::proxy
