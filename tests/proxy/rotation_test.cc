#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "proxy/system.h"

namespace mope::proxy {
namespace {

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::ValueType;
using query::RangeQuery;

constexpr uint64_t kDomain = 150;

std::vector<Row> MakeRows() {
  std::vector<Row> rows;
  for (int64_t v = 0; v < static_cast<int64_t>(kDomain); ++v) {
    rows.push_back(Row{v, v + 10000});
  }
  return rows;
}

Schema MakeSchema() {
  return Schema({Column{"key", ValueType::kInt},
                 Column{"payload", ValueType::kInt}});
}

class RotationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EncryptedColumnSpec spec;
    spec.column = "key";
    spec.domain = kDomain;
    spec.k = 5;
    spec.mode = QueryMode::kAdaptiveUniform;
    spec.batch_size = 8;
    ASSERT_TRUE(
        system_.LoadTable("data", MakeSchema(), MakeRows(), spec).ok());
  }

  std::vector<int64_t> StoredCiphertexts() {
    auto table = system_.server()->catalog()->GetTable("data");
    EXPECT_TRUE(table.ok());
    std::vector<int64_t> out;
    for (uint64_t r = 0; r < (*table)->row_count(); ++r) {
      out.push_back(std::get<int64_t>((*table)->row(r)[0]));
    }
    return out;
  }

  MopeSystem system_{0x707A7E};
};

TEST_F(RotationTest, RotationRewritesEveryCiphertext) {
  const auto before = StoredCiphertexts();
  auto rotated = system_.RotateKey("data", "key");
  ASSERT_TRUE(rotated.ok()) << rotated.status();
  EXPECT_EQ(rotated.value(), kDomain);
  const auto after = StoredCiphertexts();
  int unchanged = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    if (before[i] == after[i]) ++unchanged;
  }
  // A fresh OPE key and offset leave essentially no ciphertext in place.
  EXPECT_LT(unchanged, 5);
}

TEST_F(RotationTest, QueriesStayCorrectAcrossRotations) {
  for (int rotation = 0; rotation < 3; ++rotation) {
    for (uint64_t first : {0ULL, 40ULL, 120ULL}) {
      const RangeQuery q{first, first + 19 < kDomain ? first + 19 : kDomain - 1};
      auto resp = system_.Query("data", "key", q);
      ASSERT_TRUE(resp.ok()) << resp.status();
      EXPECT_EQ(resp->rows.size(), q.length());
      std::set<int64_t> keys;
      for (const Row& row : resp->rows) {
        keys.insert(std::get<int64_t>(row[0]));
      }
      EXPECT_EQ(*keys.begin(), static_cast<int64_t>(q.first));
      EXPECT_EQ(*keys.rbegin(), static_cast<int64_t>(q.last));
    }
    ASSERT_TRUE(system_.RotateKey("data", "key").ok());
  }
}

TEST_F(RotationTest, IndexStaysConsistentAfterRotation) {
  ASSERT_TRUE(system_.RotateKey("data", "key").ok());
  auto table = system_.server()->catalog()->GetTable("data");
  ASSERT_TRUE(table.ok());
  auto index = (*table)->GetIndex("key");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->size(), kDomain);
  EXPECT_TRUE((*index)->CheckInvariants().ok());
  // Every stored ciphertext must be findable through the index.
  uint64_t found = 0;
  (*index)->ScanRange(0, ~uint64_t{0},
                      [&found](uint64_t, uint64_t) { ++found; });
  EXPECT_EQ(found, kDomain);
}

TEST_F(RotationTest, RotationChangesTheOffset) {
  // Decrypt-ability of old ciphertexts under the new key would be a bug;
  // spot-check that old ciphertexts are now either invalid or decrypt to
  // different plaintexts.
  auto proxy = system_.GetProxy("data", "key");
  ASSERT_TRUE(proxy.ok());
  const auto before = StoredCiphertexts();
  ASSERT_TRUE(system_.RotateKey("data", "key").ok());
  int agreeing = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    auto plain = (*proxy)->DecryptValue(static_cast<uint64_t>(before[i]));
    if (plain.ok() && plain.value() == i) ++agreeing;
  }
  EXPECT_LT(agreeing, 5);
}

/// Table hooks that refuse `times` row updates in a row, starting with the
/// `fail_at`-th (counting from 1), and accept everything else.
class RefusingUpdateHooks final : public engine::TableDurabilityHooks {
 public:
  RefusingUpdateHooks(uint64_t fail_at, uint64_t times)
      : fail_at_(fail_at), times_(times) {}

  Status OnInsert(engine::RowId, uint64_t, std::string_view) override {
    return Status::OK();
  }
  Status OnUpdateValue(engine::RowId, size_t, const engine::Value&) override {
    if (++updates_ < fail_at_ || refused_ == times_) return Status::OK();
    ++refused_;
    return Status::Unavailable("injected: update refused");
  }
  Status OnCreateIndex(size_t) override { return Status::OK(); }

 private:
  uint64_t fail_at_;
  uint64_t times_;
  uint64_t updates_ = 0;
  uint64_t refused_ = 0;
};

TEST_F(RotationTest, FailedRotationRollsBackAndEveryValueStillAnswers) {
  auto table = system_.server()->catalog()->GetTable("data");
  ASSERT_TRUE(table.ok());
  const auto before = StoredCiphertexts();
  RefusingUpdateHooks hooks(/*fail_at=*/50, /*times=*/1);
  (*table)->set_durability_hooks(&hooks);
  auto rotated = system_.RotateKey("data", "key");
  (*table)->set_durability_hooks(nullptr);
  ASSERT_FALSE(rotated.ok());
  EXPECT_TRUE(rotated.status().IsUnavailable()) << rotated.status();
  EXPECT_EQ(rotated.status().message(), "injected: update refused");
  // The 49 rows rewritten before the refusal are back under the old key.
  EXPECT_EQ(StoredCiphertexts(), before);

  auto all = system_.Query("data", "key", RangeQuery{0, kDomain - 1});
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->rows.size(), kDomain);
  for (uint64_t v = 0; v < kDomain; ++v) {
    auto resp = system_.Query("data", "key", RangeQuery{v, v});
    ASSERT_TRUE(resp.ok()) << v << ": " << resp.status();
    ASSERT_EQ(resp->rows.size(), 1u) << v;
    EXPECT_EQ(resp->rows[0], (Row{static_cast<int64_t>(v),
                                  static_cast<int64_t>(v) + 10000}));
  }
  // And a later rotation goes through.
  ASSERT_TRUE(system_.RotateKey("data", "key").ok());
  auto again = system_.Query("data", "key", RangeQuery{0, kDomain - 1});
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->rows.size(), kDomain);
}

TEST_F(RotationTest, FailedRollbackCountsTheStrandedRows) {
  auto table = system_.server()->catalog()->GetTable("data");
  ASSERT_TRUE(table.ok());
  // Every update from the 50th on is refused: the rotation stops at row
  // 49, and none of rows 0-48 can be put back.
  RefusingUpdateHooks hooks(/*fail_at=*/50, /*times=*/~uint64_t{0});
  (*table)->set_durability_hooks(&hooks);
  auto rotated = system_.RotateKey("data", "key");
  (*table)->set_durability_hooks(nullptr);
  ASSERT_FALSE(rotated.ok());
  EXPECT_TRUE(rotated.status().IsInternal()) << rotated.status();
  EXPECT_NE(rotated.status().message().find("49 of 150 rows"),
            std::string::npos)
      << rotated.status();
}

}  // namespace
}  // namespace mope::proxy
