/// Storage metrics across a crash/recovery cycle. One MetricsRegistry is
/// shared across every engine generation — exactly how the daemon's registry
/// survives an in-process reopen — so the `storage.*` counters must be
/// monotone over crashes, and the fsync histogram must account work done by
/// recovery itself.

#include <gtest/gtest.h>

#include <string>

#include "obs/clock.h"
#include "obs/registry.h"
#include "storage/env.h"
#include "storage/storage_engine.h"

namespace mope::storage {
namespace {

StorageOptions TestOptions(Env* env, obs::MetricsRegistry* metrics,
                           obs::Clock* clock) {
  StorageOptions options;
  options.env = env;
  options.metrics = metrics;
  options.clock = clock;
  options.wal_sync_every = 1;
  return options;
}

TEST(MetricsRecoveryTest, CountersAreMonotoneAcrossCrashAndRecovery) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  obs::ManualClock clock(0, /*auto_advance_ns=*/100);
  const StorageOptions options = TestOptions(&env, &metrics, &clock);

  {
    auto engine = StorageEngine::Open("/db", options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*engine)->Log("row " + std::to_string(i)).ok());
    }
  }
  const int64_t records_before =
      metrics.GetCounter("storage.wal.records")->Value();
  const int64_t syncs_before = metrics.GetCounter("storage.wal.syncs")->Value();
  const uint64_t fsyncs_before =
      metrics.GetHistogram("storage.wal.fsync_ns")->Count();
  EXPECT_GT(records_before, 0);
  EXPECT_GT(syncs_before, 0);
  // sync_every=1: every sync came through the timed path.
  EXPECT_EQ(fsyncs_before, static_cast<uint64_t>(syncs_before));
  EXPECT_EQ(metrics.GetCounter("storage.engine.recoveries")->Value(), 0);

  env.SimulateCrash();

  {
    auto engine = StorageEngine::Open("/db", options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    EXPECT_TRUE((*engine)->crash_recovered());
    EXPECT_GT((*engine)->recovered_records(), 0u);

    // Recovery in the same registry: recovery counters advance, everything
    // else never moves backwards.
    EXPECT_EQ(metrics.GetCounter("storage.engine.recoveries")->Value(), 1);
    EXPECT_EQ(metrics.GetCounter("storage.engine.recovered_records")->Value(),
              static_cast<int64_t>((*engine)->recovered_records()));
    EXPECT_GE(metrics.GetCounter("storage.wal.records")->Value(),
              records_before);
    EXPECT_GE(metrics.GetCounter("storage.wal.syncs")->Value(), syncs_before);

    // New work keeps the same counters climbing (the owner checkpoints
    // first, as it must after a recovery).
    ASSERT_TRUE((*engine)->Checkpoint("image").ok());
    ASSERT_TRUE((*engine)->Log("post-recovery row").ok());
    EXPECT_GT(metrics.GetCounter("storage.wal.records")->Value(),
              records_before);
    EXPECT_GT(metrics.GetHistogram("storage.wal.fsync_ns")->Count(),
              fsyncs_before);
  }
}

TEST(MetricsRecoveryTest, SecondCrashIncrementsRecoveriesAgain) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  obs::ManualClock clock(0, 100);
  const StorageOptions options = TestOptions(&env, &metrics, &clock);

  for (int generation = 1; generation <= 3; ++generation) {
    {
      auto engine = StorageEngine::Open("/db", options);
      ASSERT_TRUE(engine.ok()) << engine.status();
      ASSERT_TRUE((*engine)->Log("gen " + std::to_string(generation)).ok());
    }
    env.SimulateCrash();
  }
  auto engine = StorageEngine::Open("/db", options);
  ASSERT_TRUE(engine.ok());
  // Generations 2 and 3 and the final open each replayed a WAL; gen 1's
  // open saw a fresh directory.
  EXPECT_EQ(metrics.GetCounter("storage.engine.recoveries")->Value(), 3);
}

TEST(MetricsRecoveryTest, CheckpointCounterSurvivesCrash) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  obs::ManualClock clock(0, 100);
  const StorageOptions options = TestOptions(&env, &metrics, &clock);

  {
    auto engine = StorageEngine::Open("/db", options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Log("durable").ok());
    ASSERT_TRUE((*engine)->Checkpoint("").ok());
    EXPECT_EQ(metrics.GetCounter("storage.engine.checkpoints")->Value(), 1);
  }
  env.SimulateCrash();
  auto engine = StorageEngine::Open("/db", options);
  ASSERT_TRUE(engine.ok());
  // The WAL was truncated by the checkpoint: a clean reopen, and the
  // process-lifetime checkpoint count is untouched.
  EXPECT_FALSE((*engine)->crash_recovered());
  EXPECT_EQ(metrics.GetCounter("storage.engine.checkpoints")->Value(), 1);
  EXPECT_EQ(metrics.GetCounter("storage.engine.recoveries")->Value(), 0);
}

}  // namespace
}  // namespace mope::storage
