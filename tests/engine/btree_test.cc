#include "engine/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"

namespace mope::engine {
namespace {

std::vector<std::pair<uint64_t, uint64_t>> ScanAll(const BPlusTree& t) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  t.ScanRange(0, ~uint64_t{0}, [&out](uint64_t k, uint64_t v) {
    out.emplace_back(k, v);
  });
  return out;
}

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 1);
  EXPECT_EQ(t.CountRange(0, 100), 0u);
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(BPlusTreeTest, InsertAndScanSorted) {
  BPlusTree t;
  t.Insert(5, 50);
  t.Insert(1, 10);
  t.Insert(9, 90);
  t.Insert(3, 30);
  const auto all = ScanAll(t);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0], (std::pair<uint64_t, uint64_t>{1, 10}));
  EXPECT_EQ(all[3], (std::pair<uint64_t, uint64_t>{9, 90}));
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(BPlusTreeTest, RangeScanBoundsAreInclusive) {
  BPlusTree t;
  for (uint64_t k = 0; k < 20; ++k) t.Insert(k, k);
  EXPECT_EQ(t.CountRange(5, 10), 6u);
  EXPECT_EQ(t.CountRange(5, 5), 1u);
  EXPECT_EQ(t.CountRange(19, 19), 1u);
  EXPECT_EQ(t.CountRange(20, 100), 0u);
  EXPECT_EQ(t.CountRange(7, 3), 0u);  // inverted
}

TEST(BPlusTreeTest, DuplicateKeysAllKept) {
  BPlusTree t;
  for (uint64_t rid = 0; rid < 300; ++rid) t.Insert(7, rid);
  EXPECT_EQ(t.size(), 300u);
  EXPECT_EQ(t.CountRange(7, 7), 300u);
  EXPECT_EQ(t.CountRange(6, 6), 0u);
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
}

TEST(BPlusTreeTest, SplitsIncreaseHeight) {
  BPlusTree t;
  for (uint64_t k = 0; k < 10000; ++k) t.Insert(k, k);
  EXPECT_GT(t.height(), 1);
  EXPECT_EQ(t.size(), 10000u);
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
  EXPECT_EQ(t.CountRange(2500, 7499), 5000u);
}

TEST(BPlusTreeTest, ReverseInsertionOrder) {
  BPlusTree t;
  for (uint64_t k = 5000; k-- > 0;) t.Insert(k, k);
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
  const auto all = ScanAll(t);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].first, all[i].first);
  }
}

TEST(BPlusTreeTest, EraseExistingEntry) {
  BPlusTree t;
  t.Insert(5, 1);
  t.Insert(5, 2);
  EXPECT_TRUE(t.Erase(5, 1));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.CountRange(5, 5), 1u);
  EXPECT_FALSE(t.Erase(5, 1));  // already gone
  EXPECT_TRUE(t.Erase(5, 2));
  EXPECT_TRUE(t.empty());
}

TEST(BPlusTreeTest, EraseMissingReturnsFalse) {
  BPlusTree t;
  t.Insert(3, 3);
  EXPECT_FALSE(t.Erase(4, 4));
  EXPECT_FALSE(t.Erase(3, 4));
  EXPECT_EQ(t.size(), 1u);
}

TEST(BPlusTreeTest, MassEraseShrinksHeight) {
  BPlusTree t;
  for (uint64_t k = 0; k < 20000; ++k) t.Insert(k, k);
  const int full_height = t.height();
  for (uint64_t k = 0; k < 19990; ++k) {
    ASSERT_TRUE(t.Erase(k, k));
  }
  EXPECT_EQ(t.size(), 10u);
  EXPECT_LT(t.height(), full_height);
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
  EXPECT_EQ(t.CountRange(0, ~uint64_t{0}), 10u);
}

TEST(BPlusTreeTest, RandomizedOpsMatchReferenceModel) {
  // (key, row_id) pairs are unique in an index (a row is indexed once), so
  // the model skips duplicate inserts.
  BPlusTree t;
  std::set<std::pair<uint64_t, uint64_t>> model;
  Rng rng(0xDB);
  for (int op = 0; op < 30000; ++op) {
    const uint64_t key = rng.UniformUint64(500);
    const uint64_t rid = rng.UniformUint64(40);
    if (rng.Bernoulli(0.6) || model.empty()) {
      if (model.contains({key, rid})) continue;
      t.Insert(key, rid);
      model.emplace(key, rid);
    } else {
      const bool expected = model.find({key, rid}) != model.end();
      EXPECT_EQ(t.Erase(key, rid), expected);
      if (expected) model.erase(model.find({key, rid}));
    }
    if (op % 5000 == 4999) {
      ASSERT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
      ASSERT_EQ(t.size(), model.size());
    }
  }
  // Final: every range query agrees with the model.
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t lo = rng.UniformUint64(500);
    uint64_t hi = rng.UniformUint64(500);
    if (lo > hi) std::swap(lo, hi);
    size_t expected = 0;
    for (const auto& [k, v] : model) {
      if (k >= lo && k <= hi) ++expected;
    }
    EXPECT_EQ(t.CountRange(lo, hi), expected) << lo << ".." << hi;
  }
}

TEST(BPlusTreeTest, ScanVisitsInOrderWithDuplicates) {
  BPlusTree t;
  Rng rng(0xEE);
  for (int i = 0; i < 5000; ++i) {
    t.Insert(rng.UniformUint64(100), rng.UniformUint64(1000));
  }
  uint64_t prev_key = 0;
  bool first = true;
  t.ScanRange(0, ~uint64_t{0}, [&](uint64_t k, uint64_t) {
    if (!first) EXPECT_GE(k, prev_key);
    prev_key = k;
    first = false;
  });
}

TEST(BPlusTreeTest, MoveConstructionTransfersOwnership) {
  BPlusTree a;
  for (uint64_t k = 0; k < 1000; ++k) a.Insert(k, k);
  BPlusTree b(std::move(a));
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_TRUE(b.CheckInvariants().ok());
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): documented reset
  EXPECT_TRUE(a.CheckInvariants().ok());
}

TEST(BPlusTreeTest, ScanRangeReturnsVisitCount) {
  BPlusTree t;
  for (uint64_t k = 0; k < 100; ++k) t.Insert(k, k);
  const size_t visited = t.ScanRange(10, 19, [](uint64_t, uint64_t) {});
  EXPECT_EQ(visited, 10u);
}

TEST(BPlusTreeTest, CollectAndCountMatchScanOnRandomTrees) {
  // Heavy key duplication and ranges from a point to the whole tree: runs
  // start and stop inside leaves, at their edges and many leaves apart.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    BPlusTree t;
    const uint64_t key_space = 1 + rng.UniformUint64(600);
    const uint64_t entries = rng.UniformUint64(3000);
    for (uint64_t rid = 0; rid < entries; ++rid) {
      t.Insert(rng.UniformUint64(key_space), rid);
    }
    // Erasures leave leaves at every fill level.
    for (uint64_t i = 0; i < entries / 3; ++i) {
      t.Erase(rng.UniformUint64(key_space), rng.UniformUint64(entries + 1));
    }
    ASSERT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
    for (int trial = 0; trial < 60; ++trial) {
      uint64_t lo = rng.UniformUint64(key_space + 2);
      uint64_t hi = rng.Bernoulli(0.1) ? ~uint64_t{0}
                                       : rng.UniformUint64(key_space + 2);
      if (trial % 7 == 0) hi = lo;
      if (trial % 11 == 0) std::swap(lo, hi);  // sometimes inverted
      std::vector<uint64_t> scanned;
      BPlusTree::ScanStats scan_stats;
      const size_t visited = t.ScanRange(
          lo, hi, [&scanned](uint64_t, uint64_t rid) { scanned.push_back(rid); },
          &scan_stats);
      // Appends behind what the list already holds.
      std::vector<uint64_t> collected = {7, 8};
      BPlusTree::ScanStats collect_stats;
      const size_t appended = t.CollectRange(lo, hi, &collected, &collect_stats);
      BPlusTree::ScanStats count_stats;
      const size_t counted = t.CountRange(lo, hi, &count_stats);
      const std::string what = "seed " + std::to_string(seed) + ", [" +
                               std::to_string(lo) + ", " + std::to_string(hi) +
                               "]";
      ASSERT_EQ(visited, scanned.size()) << what;
      ASSERT_EQ(appended, scanned.size()) << what;
      ASSERT_EQ(counted, scanned.size()) << what;
      ASSERT_EQ(collected.size(), scanned.size() + 2) << what;
      EXPECT_EQ(collected[0], 7u) << what;
      EXPECT_EQ(collected[1], 8u) << what;
      EXPECT_TRUE(std::equal(scanned.begin(), scanned.end(),
                             collected.begin() + 2))
          << what;
      EXPECT_EQ(collect_stats.nodes_visited, scan_stats.nodes_visited) << what;
      EXPECT_EQ(count_stats.nodes_visited, scan_stats.nodes_visited) << what;
    }
  }
}

TEST(BPlusTreeTest, MaxKeyBoundary) {
  BPlusTree t;
  t.Insert(~uint64_t{0}, 1);
  t.Insert(0, 2);
  EXPECT_EQ(t.CountRange(0, ~uint64_t{0}), 2u);
  EXPECT_EQ(t.CountRange(~uint64_t{0}, ~uint64_t{0}), 1u);
}

}  // namespace
}  // namespace mope::engine
