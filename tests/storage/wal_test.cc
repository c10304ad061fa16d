#include "storage/wal.h"

#include <gtest/gtest.h>

#include "obs/registry.h"
#include "storage/env.h"

namespace mope::storage {
namespace {

TEST(WalTest, AppendReadAllRoundTrip) {
  InMemEnv env;
  auto wal = Wal::Open(&env, "/wal", /*next_lsn=*/1, /*sync_every=*/1, nullptr);
  ASSERT_TRUE(wal.ok()) << wal.status();
  auto l1 = (*wal)->Append(WalRecordType::kCatalog, "ddl one");
  auto l2 = (*wal)->Append(WalRecordType::kCatalog, "row bytes");
  ASSERT_TRUE(l1.ok() && l2.ok());
  EXPECT_EQ(*l1, 1u);
  EXPECT_EQ(*l2, 2u);

  auto records = Wal::ReadAll(&env, "/wal", /*after_lsn=*/0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].lsn, 1u);
  EXPECT_EQ((*records)[0].type, WalRecordType::kCatalog);
  EXPECT_EQ((*records)[0].payload, "ddl one");
  EXPECT_EQ((*records)[1].payload, "row bytes");
}

TEST(WalTest, AfterLsnFiltersStaleRecords) {
  InMemEnv env;
  auto wal = Wal::Open(&env, "/wal", 1, 1, nullptr);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kCatalog, "old").ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kCatalog, "new").ok());
  auto records = Wal::ReadAll(&env, "/wal", /*after_lsn=*/1);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "new");
}

TEST(WalTest, GroupCommitSyncsEveryN) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  auto wal = Wal::Open(&env, "/wal", 1, /*sync_every=*/3, &metrics);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE((*wal)->Append(WalRecordType::kCatalog, "r").ok());
  }
  // 7 appends, policy N=3: two automatic syncs (after 3 and 6).
  EXPECT_EQ(metrics.GetCounter("storage.wal.syncs")->Value(), 2u);
  env.SimulateCrash();
  auto records = Wal::ReadAll(&env, "/wal", 0);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 6u);  // the 7th was never synced
}

TEST(WalTest, ExplicitSyncCommitsEverything) {
  InMemEnv env;
  auto wal = Wal::Open(&env, "/wal", 1, /*sync_every=*/0, nullptr);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kCatalog, "a").ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kCatalog, "b").ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  env.SimulateCrash();
  auto records = Wal::ReadAll(&env, "/wal", 0);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

TEST(WalTest, TornTailToleratedNotFatal) {
  InMemEnv env;
  auto wal = Wal::Open(&env, "/wal", 1, 1, nullptr);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kCatalog, "whole record").ok());

  // Simulate a torn append: raw garbage after the last good record.
  auto file = env.OpenAppend("/wal", false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("\x10\x00\x00\x00garbage").ok());

  auto records = Wal::ReadAll(&env, "/wal", 0);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "whole record");
}

TEST(WalTest, RestartTruncatesAndLsnsContinue) {
  InMemEnv env;
  auto wal = Wal::Open(&env, "/wal", 1, 1, nullptr);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kCatalog, "before").ok());
  ASSERT_TRUE((*wal)->Restart().ok());
  auto lsn = (*wal)->Append(WalRecordType::kCatalog, "after");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);  // never reused

  auto records = Wal::ReadAll(&env, "/wal", 0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "after");
}

TEST(WalTest, ReadAllOnMissingFileIsEmpty) {
  InMemEnv env;
  auto records = Wal::ReadAll(&env, "/never-created", 0);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(WalTest, FailedSyncSurfacesToAppend) {
  InMemEnv base;
  FaultyEnv env(&base);
  auto wal = Wal::Open(&env, "/wal", 1, /*sync_every=*/1, nullptr);
  ASSERT_TRUE(wal.ok());
  FaultyEnv::Faults faults;
  faults.fail_sync = true;
  env.set_faults(faults);
  // sync_every=1 makes the failed fsync visible on the append itself.
  EXPECT_FALSE((*wal)->Append(WalRecordType::kCatalog, "r").ok());
}

}  // namespace
}  // namespace mope::storage
