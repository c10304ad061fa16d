/// Figure 4 has a *set of clients* sharing one trusted proxy: concurrent
/// ExecuteRange calls (and a key rotation racing them) must all return
/// exact answers.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "proxy/system.h"

namespace mope::proxy {
namespace {

using engine::Row;
using query::RangeQuery;

constexpr uint64_t kDomain = 300;

TEST(ConcurrencyTest, ManyClientsShareOneProxy) {
  MopeSystem system(0xC0C0);
  EncryptedColumnSpec spec;
  spec.column = "v";
  spec.domain = kDomain;
  spec.k = 8;
  spec.mode = QueryMode::kAdaptiveUniform;
  spec.batch_size = 16;
  std::vector<Row> rows;
  for (int64_t v = 0; v < static_cast<int64_t>(kDomain); ++v) {
    rows.push_back(Row{v});
  }
  ASSERT_TRUE(system
                  .LoadTable("t", engine::Schema({{"v", engine::ValueType::kInt}}),
                             rows, spec)
                  .ok());

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&system, &failures, c] {
      Rng rng(static_cast<uint64_t>(c) + 1);
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const uint64_t first = rng.UniformUint64(kDomain - 20);
        const RangeQuery q{first, first + 19};
        auto resp = system.Query("t", "v", q);
        if (!resp.ok() || resp->rows.size() != 20) {
          ++failures;
          continue;
        }
        for (const Row& row : resp->rows) {
          const int64_t v = std::get<int64_t>(row[0]);
          if (v < static_cast<int64_t>(q.first) ||
              v > static_cast<int64_t>(q.last)) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, RotationRacesWithClients) {
  MopeSystem system(0xC0C1);
  EncryptedColumnSpec spec;
  spec.column = "v";
  spec.domain = kDomain;
  spec.k = 8;
  spec.mode = QueryMode::kAdaptiveUniform;
  spec.batch_size = 16;
  std::vector<Row> rows;
  for (int64_t v = 0; v < static_cast<int64_t>(kDomain); ++v) {
    rows.push_back(Row{v});
  }
  ASSERT_TRUE(system
                  .LoadTable("t", engine::Schema({{"v", engine::ValueType::kInt}}),
                             rows, spec)
                  .ok());

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::thread rotator([&system, &failures, &stop] {
    for (int r = 0; r < 5; ++r) {
      if (!system.RotateKey("t", "v").ok()) ++failures;
    }
    stop = true;
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&system, &failures, &stop, c] {
      Rng rng(static_cast<uint64_t>(c) + 100);
      while (!stop) {
        const uint64_t first = rng.UniformUint64(kDomain - 10);
        auto resp = system.Query("t", "v", RangeQuery{first, first + 9});
        if (!resp.ok() || resp->rows.size() != 10) ++failures;
      }
    });
  }
  rotator.join();
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

/// The single-value accessors (EncryptValue / DecryptValue) and the stats
/// reader (totals) take the proxy lock, so they can
/// race queries and a key rotation without tearing: an Encrypt must use a
/// coherent key (never half-rotated state), and totals() snapshots must be
/// internally consistent. Regression for the formerly lock-free accessors.
TEST(ConcurrencyTest, AccessorsRaceWithRotation) {
  MopeSystem system(0xC0C2);
  EncryptedColumnSpec spec;
  spec.column = "v";
  spec.domain = kDomain;
  spec.k = 8;
  spec.mode = QueryMode::kAdaptiveUniform;
  spec.batch_size = 16;
  std::vector<Row> rows;
  for (int64_t v = 0; v < static_cast<int64_t>(kDomain); ++v) {
    rows.push_back(Row{v});
  }
  ASSERT_TRUE(system
                  .LoadTable("t", engine::Schema({{"v", engine::ValueType::kInt}}),
                             rows, spec)
                  .ok());
  auto proxy = system.GetProxy("t", "v");
  ASSERT_TRUE(proxy.ok());

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::thread rotator([&system, &failures, &stop] {
    for (int r = 0; r < 5; ++r) {
      if (!system.RotateKey("t", "v").ok()) ++failures;
    }
    stop = true;
  });
  std::thread querier([&system, &failures, &stop] {
    Rng rng(0xBEEF);
    while (!stop) {
      const uint64_t first = rng.UniformUint64(kDomain - 10);
      auto resp = system.Query("t", "v", RangeQuery{first, first + 9});
      if (!resp.ok() || resp->rows.size() != 10) ++failures;
    }
  });
  std::thread encryptor([&proxy, &failures, &stop] {
    Rng rng(0xF00D);
    while (!stop) {
      const uint64_t m = rng.UniformUint64(kDomain);
      // Encrypting an in-domain value must succeed under any key; the lock
      // makes the call atomic against RotateKey's key swap. Decrypting that
      // cipher may land under a *different* key (rotation can interleave
      // between the two calls), and a cipher from the old key is allowed to
      // be invalid under the new one — so exercise the locked path but only
      // assert encryption.
      auto c = (*proxy)->EncryptValue(m);
      if (!c.ok()) {
        ++failures;
        continue;
      }
      (void)(*proxy)->DecryptValue(*c);
    }
  });
  std::thread stats_reader([&proxy, &failures, &stop] {
    uint64_t last_queries = 0;
    while (!stop) {
      // totals() is a by-value snapshot taken under the lock, so the
      // accumulated counters can only grow between reads; a regression to
      // the old unlocked reference would let tsan (and, with enough luck,
      // these monotonicity checks) catch the tear.
      const QueryResponse totals = (*proxy)->totals();
      const uint64_t queries =
          totals.real_queries_sent + totals.fake_queries_sent;
      if (queries < last_queries) ++failures;
      last_queries = queries;
    }
  });
  rotator.join();
  querier.join();
  encryptor.join();
  stats_reader.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace mope::proxy
