/// End-to-end integration tests: the full paper pipeline — TPC-H-style data
/// loaded through the trusted proxy with MOPE encryption, range queries
/// executed with fake-query mixing against the unmodified server, results
/// filtered and decrypted — checked for exact agreement with plaintext SQL
/// over the same data.

#include <gtest/gtest.h>

#include <cmath>

#include "proxy/system.h"
#include "sql/planner.h"
#include "workload/datasets.h"
#include "workload/generator.h"
#include "workload/tpch.h"

namespace mope {
namespace {

using engine::Catalog;
using engine::Row;
using proxy::EncryptedColumnSpec;
using proxy::MopeSystem;
using proxy::QueryMode;
using query::RangeQuery;
using namespace workload;  // NOLINT

class TpchEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.scale_factor = 0.002;  // ~12k lineitem rows
    data_ = GenerateTpch(config);

    // Plaintext side: ordinary catalog for SQL baselines.
    auto li = plain_.CreateTable("lineitem", data_.lineitem_schema);
    ASSERT_TRUE(li.ok());
    for (const Row& row : data_.lineitem) {
      ASSERT_TRUE((*li)->Insert(row).ok());
    }
    ASSERT_TRUE((*li)->CreateIndex("l_shipdate").ok());
    auto part = plain_.CreateTable("part", data_.part_schema);
    ASSERT_TRUE(part.ok());
    for (const Row& row : data_.part) {
      ASSERT_TRUE((*part)->Insert(row).ok());
    }

    // Encrypted side: lineitem with MOPE-encrypted l_shipdate.
    EncryptedColumnSpec spec;
    spec.column = "l_shipdate";
    spec.domain = kTpchDateDomain;
    spec.k = 30;
    spec.mode = QueryMode::kAdaptiveUniform;
    spec.batch_size = 16;
    ASSERT_TRUE(system_.LoadTable("lineitem", data_.lineitem_schema,
                                  data_.lineitem, spec)
                    .ok());
  }

  /// Reference row count via plaintext SQL.
  int64_t PlainCount(const std::string& where) {
    auto result = sql::ExecuteSql(
        &plain_, "SELECT COUNT(*) FROM lineitem WHERE " + where);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::get<int64_t>(result->rows[0][0]);
  }

  TpchData data_;
  Catalog plain_;
  MopeSystem system_{0xE2E};
};

TEST_F(TpchEndToEndTest, EncryptedRangeCountsMatchPlaintextSql) {
  Rng rng(11);
  for (int i = 0; i < 5; ++i) {
    const Q14Params q14 = SampleQ14(&rng);
    auto resp = system_.Query("lineitem", "l_shipdate", q14.shipdate);
    ASSERT_TRUE(resp.ok()) << resp.status();
    const int64_t expected =
        PlainCount("l_shipdate BETWEEN " + std::to_string(q14.shipdate.first) +
                   " AND " + std::to_string(q14.shipdate.last));
    EXPECT_EQ(static_cast<int64_t>(resp->rows.size()), expected);
  }
}

TEST_F(TpchEndToEndTest, Q6RevenueMatchesPlaintextSql) {
  Rng rng(13);
  const Q6Params q6 = SampleQ6(&rng);

  // Plaintext baseline through the SQL engine.
  auto baseline = sql::ExecuteSql(&plain_, Q6Sql(q6));
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const double expected = std::get<double>(baseline->rows[0][0]);

  // Encrypted path: range via proxy, residual predicates client-side.
  auto resp = system_.Query("lineitem", "l_shipdate", q6.shipdate);
  ASSERT_TRUE(resp.ok());
  double revenue = 0.0;
  for (const Row& row : resp->rows) {
    const double discount = std::get<double>(row[tpch_cols::kLDiscount]);
    const double quantity = std::get<double>(row[tpch_cols::kLQuantity]);
    if (discount >= q6.discount_lo - 1e-9 &&
        discount <= q6.discount_hi + 1e-9 && quantity < q6.quantity_lt) {
      revenue += std::get<double>(row[tpch_cols::kLExtendedPrice]) * discount;
    }
  }
  EXPECT_NEAR(revenue, expected, 1e-6 * std::max(1.0, std::abs(expected)));
}

TEST_F(TpchEndToEndTest, Q14PromoShareMatchesPlaintextSql) {
  Rng rng(17);
  const Q14Params q14 = SampleQ14(&rng);

  auto promo = sql::ExecuteSql(&plain_, Q14PromoSql(q14));
  auto total = sql::ExecuteSql(&plain_, Q14TotalSql(q14));
  ASSERT_TRUE(promo.ok() && total.ok());
  const double expected_promo = std::get<double>(promo->rows[0][0]);
  const double expected_total = std::get<double>(total->rows[0][0]);

  // Encrypted path: fetch the month of lineitems via the proxy, join with
  // PART client-side (the paper's proxy filters and post-processes).
  std::vector<int64_t> ispromo(data_.part.size() + 1, 0);
  for (const Row& row : data_.part) {
    ispromo[static_cast<size_t>(
        std::get<int64_t>(row[tpch_cols::kPartKey]))] =
        std::get<int64_t>(row[tpch_cols::kPartIsPromo]);
  }
  auto resp = system_.Query("lineitem", "l_shipdate", q14.shipdate);
  ASSERT_TRUE(resp.ok());
  double promo_rev = 0.0, total_rev = 0.0;
  for (const Row& row : resp->rows) {
    const double rev =
        std::get<double>(row[tpch_cols::kLExtendedPrice]) *
        (1.0 - std::get<double>(row[tpch_cols::kLDiscount]));
    total_rev += rev;
    if (ispromo[static_cast<size_t>(
            std::get<int64_t>(row[tpch_cols::kLPartKey]))] != 0) {
      promo_rev += rev;
    }
  }
  EXPECT_NEAR(promo_rev, expected_promo, 1e-6 * std::max(1.0, expected_promo));
  EXPECT_NEAR(total_rev, expected_total, 1e-6 * std::max(1.0, expected_total));
}

TEST_F(TpchEndToEndTest, ServerStatsShowFakeTraffic) {
  engine::DbServer* server = system_.server();
  server->ResetStats();
  Rng rng(19);
  const Q14Params q14 = SampleQ14(&rng);
  auto resp = system_.Query("lineitem", "l_shipdate", q14.shipdate);
  ASSERT_TRUE(resp.ok());
  EXPECT_GE(server->stats().ranges_received,
            resp->real_queries_sent + resp->fake_queries_sent);
  EXPECT_GE(resp->rows_received, resp->rows.size());
}

TEST_F(TpchEndToEndTest, RepeatedQ6QueryDrawsNoHgdSamples) {
  // The warm-up query's fakes walk the whole date tree into the proxy's OPE
  // memo, so a repeat of the query, fakes included, encrypts and decrypts
  // without a single HGD draw.
  Rng rng(6);
  const Q6Params q6 = SampleQ6(&rng);
  const auto warmup = system_.Query("lineitem", "l_shipdate", q6.shipdate);
  ASSERT_TRUE(warmup.ok()) << warmup.status();

  obs::MetricsRegistry* metrics = system_.metrics();
  auto counter = [metrics](const char* name) {
    return metrics->GetCounter(name)->Value();
  };
  const uint64_t draws = counter("ope.hgd_draws");
  const uint64_t encrypts = counter("ope.encrypt_calls");
  const uint64_t decrypts = counter("ope.decrypt_calls");
  const auto repeat = system_.Query("lineitem", "l_shipdate", q6.shipdate);
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  EXPECT_EQ(repeat->rows.size(), warmup->rows.size());
  EXPECT_GT(repeat->fake_queries_sent, 0u);
  EXPECT_GT(counter("ope.encrypt_calls"), encrypts);
  EXPECT_GT(counter("ope.decrypt_calls"), decrypts);
  EXPECT_EQ(counter("ope.hgd_draws"), draws);
}

TEST(DatasetEndToEndTest, SkewedWorkloadThroughPeriodicProxy) {
  // Adult-style workload end to end under QueryP.
  const auto adult = MakeDataset(DatasetKind::kAdult);
  const uint64_t domain = adult.size() + 6;  // 74 -> 80, divisible by 10
  Rng rng(23);

  // Database: 2000 records sampled from the dataset distribution.
  std::vector<Row> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back(Row{static_cast<int64_t>(adult.Sample(&rng)),
                       static_cast<int64_t>(i)});
  }

  // Query-start distribution over the padded domain.
  std::vector<double> w(domain, 1e-9);
  for (uint64_t i = 0; i < adult.size(); ++i) w[i] += adult.prob(i);
  auto starts = dist::Distribution::FromWeights(std::move(w));
  ASSERT_TRUE(starts.ok());

  MopeSystem system(29);
  EncryptedColumnSpec spec;
  spec.column = "age";
  spec.domain = domain;
  spec.k = 5;
  spec.mode = QueryMode::kPeriodic;
  spec.period = 10;
  spec.batch_size = 8;
  ASSERT_TRUE(system
                  .LoadTable("people",
                             engine::Schema({{"age", engine::ValueType::kInt},
                                             {"pid", engine::ValueType::kInt}}),
                             rows, spec, &*starts)
                  .ok());

  for (int trial = 0; trial < 10; ++trial) {
    const uint64_t first = rng.UniformUint64(60);
    const RangeQuery q{first, first + 9};
    auto resp = system.Query("people", "age", q);
    ASSERT_TRUE(resp.ok()) << resp.status();
    size_t expected = 0;
    for (const Row& row : rows) {
      const int64_t age = std::get<int64_t>(row[0]);
      if (age >= static_cast<int64_t>(q.first) &&
          age <= static_cast<int64_t>(q.last)) {
        ++expected;
      }
    }
    EXPECT_EQ(resp->rows.size(), expected);
  }
}

}  // namespace
}  // namespace mope
