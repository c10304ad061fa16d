/// Process-level crash-recovery harness (the "kill -9 the database" test).
///
/// A forked child seeds a deterministic workload into a real on-disk data
/// directory through DurableCatalog (WAL-first, fsync per record) and then
/// dies via _exit at a randomized-but-deterministic operation index — no
/// destructors, no flush, exactly what SIGKILL leaves behind. The parent
/// recovers the directory and asserts the recovered catalog is exactly the
/// workload prefix the child completed, and that the rebuilt in-memory
/// BPlusTree passes its invariant checks.
///
/// Sub-operation crash states (half-written WAL records, a crash on either
/// side of the checkpoint rename) are covered deterministically by the
/// InMemEnv crash-at-every-point and WAL-cut tests in
/// tests/storage/storage_engine_test.cc and tests/engine/durability_test.cc;
/// this harness adds the real fork / real file system / real fsync
/// dimension.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>

#include "common/random.h"
#include "engine/durability.h"
#include "engine/table.h"
#include "storage/env.h"

namespace mope::engine {
namespace {

constexpr uint64_t kMaxOps = 400;

Schema WorkloadSchema() {
  return Schema({Column{"ct", ValueType::kInt},
                 Column{"note", ValueType::kString}});
}

Row WorkloadRow(uint64_t i) {
  return {static_cast<int64_t>(i * 37 % 1000), "payload " + std::to_string(i)};
}

DurableCatalog::Options HarnessOptions() {
  DurableCatalog::Options options;
  options.wal_sync_every = 1;  // each committed op must survive the kill
  options.pool_frames = 32;
  return options;
}

void WipeDataDir(const std::string& dir) {
  storage::Env* env = storage::Env::Posix();
  for (const char* file : {"pages.db", "wal.log", "storage.meta"}) {
    const std::string path = dir + "/" + file;
    if (env->FileExists(path)) {
      ASSERT_TRUE(env->RemoveFile(path).ok()) << path;
    }
  }
}

/// Child body: run `ops` workload operations against `dir`, checkpoint at
/// `checkpoint_at` (or never, if >= ops), then die without cleanup.
[[noreturn]] void RunChildWorkload(const std::string& dir, uint64_t ops,
                                   uint64_t checkpoint_at) {
  Catalog catalog;
  auto durable = DurableCatalog::Open(dir, &catalog, HarnessOptions());
  if (!durable.ok()) _exit(10);
  auto table = catalog.CreateTable("workload", WorkloadSchema());
  if (!table.ok()) _exit(11);
  if (!(*table)->CreateIndex("ct").ok()) _exit(12);
  for (uint64_t i = 0; i < ops; ++i) {
    if (i == checkpoint_at && !(*durable)->Checkpoint().ok()) _exit(13);
    if (!(*table)->Insert(WorkloadRow(i)).ok()) _exit(14);
  }
  // SIGKILL semantics: no destructors, no flush, no checkpoint.
  _exit(42);
}

void VerifyRecoveredPrefix(const std::string& dir, uint64_t ops) {
  Catalog recovered;
  auto durable = DurableCatalog::Open(dir, &recovered, HarnessOptions());
  ASSERT_TRUE(durable.ok()) << durable.status();

  auto table = recovered.GetTable("workload");
  ASSERT_TRUE(table.ok()) << table.status();
  // wal_sync_every=1: every completed insert was durable when the child
  // died, so recovery yields exactly the child's prefix.
  ASSERT_EQ((*table)->row_count(), ops);
  for (uint64_t i = 0; i < ops; ++i) {
    EXPECT_EQ((*table)->row(i), WorkloadRow(i)) << i;
  }

  // The rebuilt in-memory index is structurally sound and queryable.
  ASSERT_TRUE((*table)->HasIndex("ct"));
  auto index = (*table)->GetIndex("ct");
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->CheckInvariants().ok());
  EXPECT_EQ((*index)->CountRange(0, 999), ops);
}

void RunCrashRound(const std::string& dir, uint64_t ops,
                   uint64_t checkpoint_at) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    RunChildWorkload(dir, ops, checkpoint_at);  // never returns
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 42) << "child workload failed";
  VerifyRecoveredPrefix(dir, ops);
}

TEST(CrashRecoveryHarness, KilledChildRecoversToExactPrefix) {
  const std::string dir = ::testing::TempDir() + "/mope_crash_recovery";
  ASSERT_TRUE(storage::Env::Posix()->CreateDir(dir).ok());
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WipeDataDir(dir);
    Rng rng(seed);
    // Randomized-but-deterministic kill point; sometimes a checkpoint lands
    // mid-workload so recovery crosses a WAL truncation.
    const uint64_t ops = 1 + rng.UniformUint64(kMaxOps);
    const uint64_t checkpoint_at =
        (seed % 2 == 0) ? rng.UniformUint64(ops) : kMaxOps + 1;
    RunCrashRound(dir, ops, checkpoint_at);
  }
}

TEST(CrashRecoveryHarness, SurvivesKillRecoverKillAgain) {
  const std::string dir = ::testing::TempDir() + "/mope_crash_recovery_twice";
  ASSERT_TRUE(storage::Env::Posix()->CreateDir(dir).ok());
  WipeDataDir(dir);

  // Round 1: child writes 100 rows and dies.
  RunCrashRound(dir, 100, /*checkpoint_at=*/kMaxOps + 1);

  // Round 2: a second child recovers the same dir, appends 50 more rows on
  // top (RowIds must continue seamlessly), and dies too.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    Catalog catalog;
    auto durable = DurableCatalog::Open(dir, &catalog, HarnessOptions());
    if (!durable.ok()) _exit(20);
    auto table = catalog.GetTable("workload");
    if (!table.ok()) _exit(21);
    if ((*table)->row_count() != 100) _exit(22);
    for (uint64_t i = 100; i < 150; ++i) {
      if (!(*table)->Insert(WorkloadRow(i)).ok()) _exit(23);
    }
    _exit(42);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 42);
  VerifyRecoveredPrefix(dir, 150);
}

}  // namespace
}  // namespace mope::engine
