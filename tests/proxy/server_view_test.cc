// Pins what the untrusted server observes of a query stream: every range
// batch's ciphertext ranges, in order, and where each batch ends. The
// paper's security argument (Sec. 7) is about exactly this view, so a change
// that is meant to be invisible to the server (a refactor, a speed-up) must
// leave every digest here unchanged. A change that alters one must say why.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "proxy/connection.h"
#include "proxy/system.h"
#include "query/query_types.h"
#include "workload/calendar.h"
#include "workload/tpch.h"

namespace mope::proxy {
namespace {

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::ValueType;
using query::RangeQuery;

/// FNV-1a over 64-bit words, with a count of what it folded.
struct ViewDigest {
  uint64_t hash = 0xcbf29ce484222325ULL;
  uint64_t batches = 0;
  uint64_t ranges = 0;

  void Fold(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
};

/// Forwards to a DirectConnection and folds every FetchRangeBatch call's
/// ranges (start, length, domain), then a batch-boundary marker.
class RecordingConnection final : public ServerConnection {
 public:
  RecordingConnection(engine::DbServer* server, ViewDigest* digest)
      : inner_(server), digest_(digest) {}

  Result<std::vector<std::pair<engine::RowId, Row>>> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    return inner_.ExecuteRangeBatch(table, column, ranges);
  }

  Result<uint64_t> FetchRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges, size_t key_column,
      const ModularInterval& keep,
      std::vector<std::pair<engine::RowId, Row>>* kept) override {
    for (const ModularInterval& range : ranges) {
      digest_->Fold(range.start());
      digest_->Fold(range.length());
      digest_->Fold(range.domain());
    }
    digest_->Fold(~uint64_t{0});
    ++digest_->batches;
    digest_->ranges += ranges.size();
    return inner_.FetchRangeBatch(table, column, ranges, key_column, keep,
                                  kept);
  }

  Result<Schema> GetSchema(const std::string& table) override {
    return inner_.GetSchema(table);
  }

  Result<uint64_t> CountRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    return inner_.CountRangeBatch(table, column, ranges);
  }

 private:
  DirectConnection inner_;
  ViewDigest* digest_;
};

/// The distribution of the k-pieces' starts over a query stream: the known
/// Q a non-adaptive proxy is configured with.
dist::Distribution StartsOf(const std::vector<RangeQuery>& queries, uint64_t k,
                            uint64_t domain) {
  Histogram hist(domain);
  for (const RangeQuery& q : queries) {
    for (const query::FixedQuery& piece : query::Decompose(q, k, domain)) {
      hist.Add(piece.start);
    }
  }
  auto starts = dist::Distribution::FromHistogram(hist);
  EXPECT_TRUE(starts.ok()) << starts.status();
  return std::move(starts).value();
}

/// Loads `rows` under `spec` (with `known_q` for the non-adaptive modes)
/// behind a recording connection, runs `queries` in order and returns the
/// server's view of them.
ViewDigest RunStream(uint64_t seed, const std::vector<Row>& rows,
                     const EncryptedColumnSpec& spec,
                     const dist::Distribution& known_q,
                     const std::vector<RangeQuery>& queries) {
  ViewDigest digest;
  MopeSystem system(seed);
  system.set_connection_factory(
      [&]() -> Result<std::unique_ptr<ServerConnection>> {
        return std::unique_ptr<ServerConnection>(
            std::make_unique<RecordingConnection>(system.server(), &digest));
      });
  const Schema schema({Column{"key", ValueType::kInt},
                       Column{"payload", ValueType::kInt}});
  const Status load = system.LoadTable("data", schema, rows, spec, &known_q);
  EXPECT_TRUE(load.ok()) << load;
  if (!load.ok()) return digest;
  for (const RangeQuery& q : queries) {
    const auto response = system.Query("data", spec.column, q);
    EXPECT_TRUE(response.ok()) << response.status();
  }
  return digest;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Every QueryMode x batch size {1, 16, 1000} on a 200-value table.

constexpr uint64_t kDomain = 200;
constexpr uint64_t kK = 10;
constexpr uint64_t kPeriod = 10;
constexpr uint64_t kSeed = 7;

std::vector<Row> SmallRows() {
  std::vector<Row> rows;
  for (int64_t v = 0; v < static_cast<int64_t>(kDomain); v += 3) {
    rows.push_back(Row{v, v * 10});
  }
  return rows;
}

/// 25 ranges from a fixed seed, skewed toward the low end of the domain.
std::vector<RangeQuery> SmallQueries() {
  Rng rng(2024);
  std::vector<RangeQuery> queries;
  for (int i = 0; i < 25; ++i) {
    const uint64_t first = rng.UniformUint64(kDomain / 2);
    const uint64_t length = 1 + rng.UniformUint64(3 * kK);
    queries.push_back(RangeQuery{first, first + length - 1});
  }
  return queries;
}

struct ViewCase {
  const char* name;
  QueryMode mode;
  size_t batch;
  uint64_t expected;
};

void PrintTo(const ViewCase& c, std::ostream* os) { *os << c.name; }

class ServerViewTest : public ::testing::TestWithParam<ViewCase> {};

TEST_P(ServerViewTest, DigestIsPinned) {
  const ViewCase& c = GetParam();
  EncryptedColumnSpec spec;
  spec.column = "key";
  spec.domain = kDomain;
  spec.k = kK;
  spec.mode = c.mode;
  spec.period = kPeriod;
  spec.batch_size = c.batch;
  const std::vector<RangeQuery> queries = SmallQueries();
  const ViewDigest digest = RunStream(
      kSeed, SmallRows(), spec, StartsOf(queries, kK, kDomain), queries);
  EXPECT_EQ(Hex(digest.hash), Hex(c.expected))
      << c.name << ": " << digest.batches << " batches, " << digest.ranges
      << " ranges";
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ServerViewTest,
    ::testing::Values(
        ViewCase{"passthrough_b1", QueryMode::kPassthrough, 1,
                 0xb7c9e95effd60ed9ULL},
        ViewCase{"passthrough_b16", QueryMode::kPassthrough, 16,
                 0x150fec1cbd22d561ULL},
        ViewCase{"passthrough_b1000", QueryMode::kPassthrough, 1000,
                 0x150fec1cbd22d561ULL},
        ViewCase{"uniform_b1", QueryMode::kUniform, 1,
                 0xcb20abf696ae8358ULL},
        ViewCase{"uniform_b16", QueryMode::kUniform, 16,
                 0x2cf504cc66b0a878ULL},
        ViewCase{"uniform_b1000", QueryMode::kUniform, 1000,
                 0x7e21f5cfb7f7a390ULL},
        ViewCase{"periodic_b1", QueryMode::kPeriodic, 1,
                 0xe5b17ea5a807fa79ULL},
        ViewCase{"periodic_b16", QueryMode::kPeriodic, 16,
                 0xa36ba5cfde3856b1ULL},
        ViewCase{"periodic_b1000", QueryMode::kPeriodic, 1000,
                 0xf9d92d4514369ce9ULL},
        ViewCase{"adaptive_uniform_b1", QueryMode::kAdaptiveUniform, 1,
                 0xcb9dd9404041a6e1ULL},
        ViewCase{"adaptive_uniform_b16", QueryMode::kAdaptiveUniform, 16,
                 0x0c1a79dbc0f7ff61ULL},
        ViewCase{"adaptive_uniform_b1000", QueryMode::kAdaptiveUniform, 1000,
                 0x747c667a82471749ULL},
        ViewCase{"adaptive_periodic_b1", QueryMode::kAdaptivePeriodic, 1,
                 0x3d4273726b3fd1d7ULL},
        ViewCase{"adaptive_periodic_b16", QueryMode::kAdaptivePeriodic, 16,
                 0x712e5c5a6d311d5fULL},
        ViewCase{"adaptive_periodic_b1000", QueryMode::kAdaptivePeriodic, 1000,
                 0xebc6643c755f545fULL}),
    [](const ::testing::TestParamInfo<ViewCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// The analyst_q6 shape: TPC-H's 2,880-day l_shipdate domain, k = 365,
// QueryU, batch 1000, Q configured from the five Q6 year ranges.

TEST(ServerViewQ6Test, DigestIsPinned) {
  std::vector<RangeQuery> years;
  for (int year = 1993; year <= 1997; ++year) {
    years.push_back(RangeQuery{
        workload::TpchDayIndex(workload::CivilDate{year, 1, 1}),
        workload::TpchDayIndex(workload::CivilDate{year + 1, 1, 1}) - 1});
  }
  EncryptedColumnSpec spec;
  spec.column = "key";
  spec.domain = workload::kTpchDateDomain;
  spec.k = 365;
  spec.mode = QueryMode::kUniform;
  spec.batch_size = 1000;

  std::vector<Row> rows;
  for (int64_t day = 0; day < static_cast<int64_t>(spec.domain); day += 7) {
    rows.push_back(Row{day, day});
  }
  // Q is the five years' starts, as analyst_q6 configures it; the stream is
  // 20 Q6 draws from a fixed seed.
  Rng rng(6);
  std::vector<RangeQuery> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back(workload::SampleQ6(&rng).shipdate);
  }
  const ViewDigest digest = RunStream(
      kSeed, rows, spec, StartsOf(years, spec.k, spec.domain), queries);
  EXPECT_EQ(Hex(digest.hash), Hex(0x3657257a2cbecbdfULL))
      << digest.batches << " batches, " << digest.ranges << " ranges";
}

}  // namespace
}  // namespace mope::proxy
