/// Storage engine costs on a real file system: what durability charges
/// the serving path.
///
/// Three experiments, all against the posix Env in a scratch directory:
///
///  1. "wal_fsync": inserts/sec through DurableCatalog as the group-commit
///     interval varies. sync_every=1 fsyncs per insert (the durability
///     ceiling), larger groups amortize it, 0 defers every fsync to one
///     final Sync — the gap between the rows IS the fsync cost.
///  2. "recovery": WAL replay time for a crash-state directory — the
///     price of restarting without a checkpoint.
///  3. "checkpoint": one Checkpoint of the recovered table — it writes the
///     whole catalog image, so its cost grows with the row count.

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "engine/durability.h"
#include "engine/table.h"
#include "obs/registry.h"
#include "storage/env.h"

namespace mope {
namespace {

std::string ScratchDir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                    "/mope_bench_storage_" + std::to_string(::getpid());
  MOPE_CHECK(storage::Env::Posix()->CreateDir(dir).ok(),
             "cannot create scratch dir");
  return dir;
}

void WipeDir(const std::string& dir) {
  storage::Env* env = storage::Env::Posix();
  for (const char* f : {"wal.log", "storage.meta"}) {
    const std::string path = dir + "/" + f;
    if (env->FileExists(path)) {
      MOPE_CHECK(env->RemoveFile(path).ok(), "cannot wipe scratch file");
    }
  }
}

engine::Schema BenchSchema() {
  return engine::Schema({engine::Column{"c", engine::ValueType::kInt},
                         engine::Column{"payload",
                                        engine::ValueType::kString}});
}

engine::Row BenchRow(uint64_t i) {
  return {static_cast<int64_t>(i * 2654435761u % 100000),
          "payload-" + std::to_string(i) + std::string(40, 'x')};
}

/// Experiment 1: insert throughput vs the WAL group-commit interval.
void RunWalFsyncSweep(const std::string& dir, bench::JsonReport* report) {
  constexpr uint64_t kRows = 2000;
  std::printf("\nInsert throughput vs WAL group commit (%llu rows, indexed "
              "int + ~60B string per row):\n\n",
              static_cast<unsigned long long>(kRows));
  bench::TablePrinter table(
      {"sync_every", "elapsed", "inserts/sec", "wal syncs"});

  for (const uint64_t sync_every : {uint64_t{1}, uint64_t{8}, uint64_t{64},
                                    uint64_t{0}}) {
    WipeDir(dir);
    obs::MetricsRegistry metrics;
    engine::Catalog catalog;
    engine::DurableCatalog::Options options;
    options.wal_sync_every = sync_every;
    options.metrics = &metrics;
    auto durable = engine::DurableCatalog::Open(dir, &catalog, options);
    MOPE_CHECK(durable.ok(), "open scratch catalog");
    auto table_ptr = catalog.CreateTable("bench", BenchSchema());
    MOPE_CHECK(table_ptr.ok(), "create table");
    MOPE_CHECK((*table_ptr)->CreateIndex("c").ok(), "create index");

    bench::Stopwatch watch;
    for (uint64_t i = 0; i < kRows; ++i) {
      MOPE_CHECK((*table_ptr)->Insert(BenchRow(i)).ok(), "insert");
    }
    // Deferred-group runs still pay one final fsync so every row compares
    // durable-to-durable.
    MOPE_CHECK((*durable)->Sync().ok(), "final sync");
    const double ms = watch.ElapsedMs();

    const uint64_t syncs = metrics.GetCounter("storage.wal.syncs")->Value();
    const double per_sec = static_cast<double>(kRows) / (ms / 1000.0);
    table.Row({sync_every == 0 ? "deferred" : std::to_string(sync_every),
               bench::FmtMs(ms), bench::Fmt(per_sec, 0),
               std::to_string(syncs)});
    report->BeginRow()
        .Field("case", "wal_fsync")
        .Field("sync_every", sync_every)
        .Field("rows", kRows)
        .Field("ms", ms);
  }
}

/// Experiments 2 and 3: WAL replay cost — reopen a crash-state directory —
/// then the cost of checkpointing what was recovered.
void RunRecoveryAndCheckpointCost(const std::string& dir, bench::JsonReport* report) {
  constexpr uint64_t kRows = 4000;
  WipeDir(dir);
  {
    obs::MetricsRegistry metrics;
    engine::Catalog catalog;
    engine::DurableCatalog::Options options;
    options.wal_sync_every = 0;  // build the crash state fast
    options.metrics = &metrics;
    auto durable = engine::DurableCatalog::Open(dir, &catalog, options);
    MOPE_CHECK(durable.ok(), "open for seed");
    auto table = catalog.CreateTable("bench", BenchSchema());
    MOPE_CHECK(table.ok(), "create table");
    MOPE_CHECK((*table)->CreateIndex("c").ok(), "create index");
    for (uint64_t i = 0; i < kRows; ++i) {
      MOPE_CHECK((*table)->Insert(BenchRow(i)).ok(), "insert");
    }
    MOPE_CHECK((*durable)->Sync().ok(), "make the WAL durable");
    // No checkpoint and no clean shutdown: the next Open must replay.
  }

  obs::MetricsRegistry metrics;
  engine::Catalog catalog;
  engine::DurableCatalog::Options options;
  options.metrics = &metrics;
  bench::Stopwatch watch;
  auto durable = engine::DurableCatalog::Open(dir, &catalog, options);
  const double ms = watch.ElapsedMs();
  MOPE_CHECK(durable.ok(), "recovery open");
  MOPE_CHECK((*durable)->recovered_from_crash(), "must be a crash state");
  auto table = catalog.GetTable("bench");
  MOPE_CHECK(table.ok() && (*table)->row_count() == kRows,
             "recovery must restore every row");

  std::printf("\nCrash recovery: replayed %llu rows (WAL + index rebuild "
              "+ checkpoint) "
              "in %s.\n",
              static_cast<unsigned long long>(kRows),
              bench::FmtMs(ms).c_str());
  report->BeginRow()
      .Field("case", "recovery")
      .Field("rows", kRows)
      .Field("ms", ms);

  bench::Stopwatch checkpoint_watch;
  MOPE_CHECK((*durable)->Checkpoint().ok(), "checkpoint");
  const double checkpoint_ms = checkpoint_watch.ElapsedMs();
  std::printf("Checkpoint: wrote the image of %llu rows in %s.\n",
              static_cast<unsigned long long>(kRows),
              bench::FmtMs(checkpoint_ms).c_str());
  report->BeginRow()
      .Field("case", "checkpoint")
      .Field("rows", kRows)
      .Field("ms", checkpoint_ms);
}

}  // namespace
}  // namespace mope

int main() {
  mope::bench::PrintHeader("Storage engine",
                           "WAL fsync cost, crash recovery replay, "
                           "checkpoint cost");
  mope::bench::JsonReport report("storage");
  const std::string dir = mope::ScratchDir();
  mope::RunWalFsyncSweep(dir, &report);
  mope::RunRecoveryAndCheckpointCost(dir, &report);
  mope::WipeDir(dir);
  report.Write();
  return 0;
}
