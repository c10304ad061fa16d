#include "proxy/proxy.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "proxy/system.h"
#include "workload/datasets.h"

namespace mope::proxy {
namespace {

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::ValueType;
using query::RangeQuery;

constexpr uint64_t kDomain = 200;

/// Rows (key, payload): 3 rows per key value in [0, kDomain).
std::vector<Row> MakeRows() {
  std::vector<Row> rows;
  for (int64_t v = 0; v < static_cast<int64_t>(kDomain); ++v) {
    for (int64_t c = 0; c < 3; ++c) {
      rows.push_back(Row{v, v * 1000 + c});
    }
  }
  return rows;
}

Schema MakeSchema() {
  return Schema({Column{"key", ValueType::kInt},
                 Column{"payload", ValueType::kInt}});
}

EncryptedColumnSpec Spec(QueryMode mode, uint64_t period = 0,
                         size_t batch = 1) {
  EncryptedColumnSpec spec;
  spec.column = "key";
  spec.domain = kDomain;
  spec.k = 10;
  spec.mode = mode;
  spec.period = period;
  spec.batch_size = batch;
  return spec;
}

void ExpectCorrectAnswer(const QueryResponse& resp, const RangeQuery& q) {
  // Exactly the 3 rows per key in [q.first, q.last], each exactly once.
  ASSERT_EQ(resp.rows.size(), 3 * q.length());
  std::multiset<int64_t> payloads;
  for (const Row& row : resp.rows) {
    const int64_t key = std::get<int64_t>(row[0]);
    EXPECT_GE(key, static_cast<int64_t>(q.first));
    EXPECT_LE(key, static_cast<int64_t>(q.last));
    payloads.insert(std::get<int64_t>(row[1]));
  }
  EXPECT_EQ(payloads.size(), resp.rows.size());
  for (int64_t v = static_cast<int64_t>(q.first);
       v <= static_cast<int64_t>(q.last); ++v) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(payloads.count(v * 1000 + c), 1u) << v << "," << c;
    }
  }
}

TEST(ProxyTest, PassthroughModeReturnsExactAnswer) {
  MopeSystem system(1);
  ASSERT_TRUE(system
                  .LoadTable("data", MakeSchema(), MakeRows(),
                             Spec(QueryMode::kPassthrough))
                  .ok());
  auto resp = system.Query("data", "key", RangeQuery{20, 49});
  ASSERT_TRUE(resp.ok()) << resp.status();
  ExpectCorrectAnswer(*resp, RangeQuery{20, 49});
  EXPECT_EQ(resp->fake_queries_sent, 0u);
  EXPECT_EQ(resp->real_queries_sent, 3u);
}

TEST(ProxyTest, UniformModeReturnsExactAnswerDespiteFakes) {
  MopeSystem system(2);
  const dist::Distribution q_starts = dist::Distribution::Uniform(kDomain);
  // Skewed start distribution so fakes are actually generated.
  std::vector<double> w(kDomain);
  for (uint64_t i = 0; i < kDomain; ++i) w[i] = (i < 20) ? 1.0 : 0.01;
  auto skew = dist::Distribution::FromWeights(std::move(w));
  ASSERT_TRUE(skew.ok());
  ASSERT_TRUE(system
                  .LoadTable("data", MakeSchema(), MakeRows(),
                             Spec(QueryMode::kUniform), &*skew)
                  .ok());
  auto resp = system.Query("data", "key", RangeQuery{5, 24});
  ASSERT_TRUE(resp.ok()) << resp.status();
  ExpectCorrectAnswer(*resp, RangeQuery{5, 24});
  EXPECT_GT(resp->fake_queries_sent, 0u);
  // Every query (real or fake) consumed one server request at batch 1.
  EXPECT_EQ(resp->server_requests,
            resp->real_queries_sent + resp->fake_queries_sent);
}

TEST(ProxyTest, PeriodicModeReturnsExactAnswer) {
  MopeSystem system(3);
  std::vector<double> w(kDomain);
  for (uint64_t i = 0; i < kDomain; ++i) w[i] = (i % 7 == 0) ? 1.0 : 0.05;
  auto skew = dist::Distribution::FromWeights(std::move(w));
  ASSERT_TRUE(skew.ok());
  ASSERT_TRUE(system
                  .LoadTable("data", MakeSchema(), MakeRows(),
                             Spec(QueryMode::kPeriodic, 20), &*skew)
                  .ok());
  auto resp = system.Query("data", "key", RangeQuery{100, 139});
  ASSERT_TRUE(resp.ok()) << resp.status();
  ExpectCorrectAnswer(*resp, RangeQuery{100, 139});
}

TEST(ProxyTest, AdaptiveUniformModeReturnsExactAnswer) {
  MopeSystem system(4);
  ASSERT_TRUE(system
                  .LoadTable("data", MakeSchema(), MakeRows(),
                             Spec(QueryMode::kAdaptiveUniform))
                  .ok());
  for (int round = 0; round < 5; ++round) {
    const RangeQuery q{static_cast<uint64_t>(10 * round),
                       static_cast<uint64_t>(10 * round + 14)};
    auto resp = system.Query("data", "key", q);
    ASSERT_TRUE(resp.ok()) << resp.status();
    ExpectCorrectAnswer(*resp, q);
  }
}

TEST(ProxyTest, BatchingReducesServerRequests) {
  MopeSystem a(5), b(5);
  std::vector<double> w(kDomain, 0.01);
  w[0] = 1.0;
  auto skew = dist::Distribution::FromWeights(std::move(w));
  ASSERT_TRUE(skew.ok());
  ASSERT_TRUE(a.LoadTable("data", MakeSchema(), MakeRows(),
                          Spec(QueryMode::kUniform, 0, 1), &*skew)
                  .ok());
  ASSERT_TRUE(b.LoadTable("data", MakeSchema(), MakeRows(),
                          Spec(QueryMode::kUniform, 0, 50), &*skew)
                  .ok());
  auto ra = a.Query("data", "key", RangeQuery{0, 9});
  auto rb = b.Query("data", "key", RangeQuery{0, 9});
  ASSERT_TRUE(ra.ok() && rb.ok());
  ExpectCorrectAnswer(*ra, RangeQuery{0, 9});
  ExpectCorrectAnswer(*rb, RangeQuery{0, 9});
  EXPECT_GT(ra->server_requests, rb->server_requests);
}

TEST(ProxyTest, ServerOnlySeesCiphertexts) {
  MopeSystem system(6);
  ASSERT_TRUE(system
                  .LoadTable("data", MakeSchema(), MakeRows(),
                             Spec(QueryMode::kPassthrough))
                  .ok());
  // The stored key column must not equal the plaintexts (the MOPE cipher
  // space is 8x larger, so collisions with small plaintext values are rare).
  auto table = system.server()->catalog()->GetTable("data");
  ASSERT_TRUE(table.ok());
  int matches = 0;
  for (uint64_t r = 0; r < (*table)->row_count(); ++r) {
    const int64_t stored = std::get<int64_t>((*table)->row(r)[0]);
    const int64_t original = std::get<int64_t>(MakeRows()[r][0]);
    if (stored == original) ++matches;
  }
  EXPECT_LT(matches, 10);
}

TEST(ProxyTest, InvalidQueriesRejected) {
  MopeSystem system(7);
  ASSERT_TRUE(system
                  .LoadTable("data", MakeSchema(), MakeRows(),
                             Spec(QueryMode::kPassthrough))
                  .ok());
  EXPECT_FALSE(system.Query("data", "key", RangeQuery{5, 4}).ok());
  EXPECT_FALSE(system.Query("data", "key", RangeQuery{0, kDomain}).ok());
  EXPECT_TRUE(system.Query("nope", "key", RangeQuery{0, 1}).status().IsNotFound());
}

TEST(ProxyTest, LoadTableValidatesSpec) {
  MopeSystem system(8);
  EncryptedColumnSpec bad = Spec(QueryMode::kUniform);
  bad.domain = 0;
  EXPECT_FALSE(system.LoadTable("d", MakeSchema(), MakeRows(), bad).ok());
  EncryptedColumnSpec missing_q = Spec(QueryMode::kUniform);
  EXPECT_FALSE(
      system.LoadTable("d2", MakeSchema(), MakeRows(), missing_q).ok());
  // The periodic modes take ρ in [1, M] dividing M: an adaptive periodic
  // column with period 0 is rejected, not run as AdaptiveQueryU.
  EXPECT_TRUE(system
                  .LoadTable("d3", MakeSchema(), MakeRows(),
                             Spec(QueryMode::kAdaptivePeriodic, 0))
                  .IsInvalidArgument());
}

TEST(ProxyTest, LoadTableRejectsOutOfDomainValues) {
  MopeSystem system(9);
  EncryptedColumnSpec spec = Spec(QueryMode::kPassthrough);
  spec.domain = 10;  // rows contain keys up to 199
  EXPECT_TRUE(system.LoadTable("d", MakeSchema(), MakeRows(), spec)
                  .IsOutOfRange());
}

TEST(ProxyTest, TotalsAccumulate) {
  MopeSystem system(10);
  ASSERT_TRUE(system
                  .LoadTable("data", MakeSchema(), MakeRows(),
                             Spec(QueryMode::kPassthrough))
                  .ok());
  ASSERT_TRUE(system.Query("data", "key", RangeQuery{0, 9}).ok());
  ASSERT_TRUE(system.Query("data", "key", RangeQuery{10, 19}).ok());
  auto proxy = system.GetProxy("data", "key");
  ASSERT_TRUE(proxy.ok());
  EXPECT_EQ((*proxy)->totals().real_queries_sent, 2u);
}

TEST(ProxyTest, CreateFromABuiltSchemeDrawsNoHgdSample) {
  // The scheme samples its table once, when it is built; the proxy takes it
  // over, so neither Create nor a query draws again.
  obs::MetricsRegistry registry;
  const obs::Counter* draws = registry.GetCounter("ope.hgd_draws");
  Rng rng(3);
  auto scheme = ope::MopeScheme::Create(
      {kDomain, ope::SuggestRange(kDomain)},
      ope::MopeKey::Generate(kDomain, &rng), &registry);
  ASSERT_TRUE(scheme.ok()) << scheme.status();
  const uint64_t built = draws->Value();
  EXPECT_GT(built, 0u);

  engine::DbServer server;
  auto table = server.catalog()->CreateTable("data", MakeSchema());
  ASSERT_TRUE(table.ok());
  for (Row row : MakeRows()) {
    const uint64_t key = static_cast<uint64_t>(std::get<int64_t>(row[0]));
    row[0] = static_cast<int64_t>(scheme->Encrypt(key).value());
    ASSERT_TRUE((*table)->Insert(row).ok());
  }
  ASSERT_TRUE((*table)->CreateIndex("key").ok());

  ProxyConfig config;
  config.table = "data";
  config.column = "key";
  config.domain = kDomain;
  config.k = 10;
  config.mode = QueryMode::kPassthrough;
  config.registry = &registry;
  auto proxy = Proxy::Create(config, std::move(scheme).value(),
                             std::make_unique<DirectConnection>(&server));
  ASSERT_TRUE(proxy.ok()) << proxy.status();
  EXPECT_EQ(draws->Value(), built);
  auto resp = (*proxy)->ExecuteRange(RangeQuery{20, 49});
  ASSERT_TRUE(resp.ok()) << resp.status();
  ExpectCorrectAnswer(*resp, RangeQuery{20, 49});
  EXPECT_EQ(draws->Value(), built);
}

TEST(ProxyTest, FailedLoadRollsBackTheServerTable) {
  MopeSystem system(9);
  std::vector<Row> rows = MakeRows();
  // One value outside the declared domain: the load must fail...
  rows.push_back(Row{static_cast<int64_t>(kDomain) + 5, int64_t{0}});
  const Status st = system.LoadTable("data", MakeSchema(), rows,
                                     Spec(QueryMode::kPassthrough));
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfRange());
  // ...and must not leave the half-encrypted table live in the catalog.
  EXPECT_TRUE(
      system.server()->catalog()->GetTable("data").status().IsNotFound());
  EXPECT_TRUE(system.GetProxy("data", "key").status().IsNotFound());

  // The name is reusable for a corrected load.
  ASSERT_TRUE(system
                  .LoadTable("data", MakeSchema(), MakeRows(),
                             Spec(QueryMode::kPassthrough))
                  .ok());
  auto resp = system.Query("data", "key", RangeQuery{20, 29});
  ASSERT_TRUE(resp.ok()) << resp.status();
}

TEST(RowIdSetTest, MatchesAStdSetForEveryId) {
  // Dense ids (a table's row ids), ids near both ends of the 64-bit range
  // (2^64-1 is the free-slot marker) and random ones, over queries of
  // several batches whose Reserve calls grow the table mid-query.
  Rng rng(0x5E7);
  RowIdSet set;
  for (int query = 0; query < 30; ++query) {
    set.Clear();
    std::set<uint64_t> model;
    const int batches = 1 + static_cast<int>(rng.UniformUint64(4));
    for (int b = 0; b < batches; ++b) {
      std::vector<uint64_t> ids;
      const uint64_t n = rng.UniformUint64(700);
      for (uint64_t i = 0; i < n; ++i) {
        switch (rng.UniformUint64(4)) {
          case 0:
            ids.push_back(rng.UniformUint64(300));
            break;
          case 1:
            ids.push_back(~uint64_t{0} - rng.UniformUint64(3));
            break;
          case 2:
            ids.push_back(rng.UniformUint64(3));
            break;
          default:
            ids.push_back(rng.NextWord());
            break;
        }
      }
      set.Reserve(ids.size());
      for (const uint64_t id : ids) {
        ASSERT_EQ(set.Insert(id), model.insert(id).second)
            << "query " << query << ", id " << id;
      }
    }
    // Every member is found again; nothing else was added.
    for (const uint64_t id : model) EXPECT_FALSE(set.Insert(id)) << id;
  }
}

}  // namespace
}  // namespace mope::proxy
