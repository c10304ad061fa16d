#include "engine/durability.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/codec.h"
#include "engine/server.h"
#include "engine/snapshot.h"
#include "engine/table.h"
#include "obs/registry.h"
#include "storage/env.h"

namespace mope::engine {
namespace {

DurableCatalog::Options TestOptions(storage::Env* env,
                                    obs::MetricsRegistry* metrics) {
  DurableCatalog::Options options;
  options.env = env;
  options.metrics = metrics;
  options.pool_frames = 16;
  options.wal_sync_every = 1;  // every mutation commits before returning
  return options;
}

Schema ItemsSchema() {
  return Schema({Column{"c", ValueType::kInt},
                 Column{"label", ValueType::kString}});
}

Status FillItems(Table* table, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    MOPE_RETURN_NOT_OK(
        table->Insert({i * 11 % 257, "item " + std::to_string(i)}).status());
  }
  return Status::OK();
}

/// One mutation of a mixed workload; it is run against both a durable
/// catalog and an unhooked model.
using Step = std::function<Status(Catalog*)>;

Step InsertItem(const std::string& table, int64_t i) {
  return [table, i](Catalog* catalog) -> Status {
    MOPE_ASSIGN_OR_RETURN(Table * t, catalog->GetTable(table));
    return t->Insert({i * 11 % 257, "item " + std::to_string(i)}).status();
  };
}

Step UpdateItem(int64_t row, size_t column, Value value) {
  return [row, column, value](Catalog* catalog) -> Status {
    MOPE_ASSIGN_OR_RETURN(Table * t, catalog->GetTable("items"));
    return t->UpdateValue(static_cast<RowId>(row), column, value);
  };
}

/// Create, index, insert, same-size and growing updates, drop: every kind
/// of WAL record, one record per step.
std::vector<Step> MixedSchedule() {
  std::vector<Step> steps;
  steps.push_back([](Catalog* c) {
    return c->CreateTable("items", ItemsSchema()).status();
  });
  steps.push_back([](Catalog* c) {
    return c->CreateTable("doomed", ItemsSchema()).status();
  });
  for (int64_t i = 0; i < 4; ++i) steps.push_back(InsertItem("items", i));
  steps.push_back([](Catalog* c) -> Status {
    MOPE_ASSIGN_OR_RETURN(Table * t, c->GetTable("items"));
    return t->CreateIndex("c");
  });
  steps.push_back(InsertItem("doomed", 0));
  steps.push_back(UpdateItem(2, 0, Value(int64_t{4242})));
  steps.push_back(UpdateItem(3, 1, Value("item 3")));
  steps.push_back(UpdateItem(1, 1, Value(std::string(300, 'g'))));
  steps.push_back([](Catalog* c) { return c->DropTable("doomed"); });
  for (int64_t i = 4; i < 8; ++i) steps.push_back(InsertItem("items", i));
  steps.push_back(UpdateItem(5, 0, Value(int64_t{7})));
  steps.push_back(UpdateItem(6, 1, Value("item 6, rewritten longer")));
  return steps;
}

std::string Image(const Catalog& catalog) {
  auto image = SerializeCatalog(catalog);
  EXPECT_TRUE(image.ok()) << image.status();
  return image.ok() ? *image : std::string();
}

void ExpectItemsEqual(const Catalog& catalog, int64_t n) {
  auto table = catalog.GetTable("items");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->row_count(), static_cast<uint64_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const Row& row = (*table)->row(static_cast<RowId>(i));
    EXPECT_EQ(row[0], Value(i * 11 % 257)) << i;
    EXPECT_EQ(row[1], Value("item " + std::to_string(i))) << i;
  }
}

TEST(DurableCatalogTest, CrashRecoveryRestoresRowsAndIndexes) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok()) << durable.status();
    EXPECT_FALSE((*durable)->recovered_from_crash());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 300).ok());
    ASSERT_TRUE((*table)->CreateIndex("c").ok());
    // No checkpoint, no clean shutdown: kill -9.
  }
  env.SimulateCrash();

  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_TRUE((*durable)->recovered_from_crash());
  ExpectItemsEqual(recovered, 300);

  auto table = recovered.GetTable("items");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->HasIndex("c"));
  auto index = (*table)->GetIndex("c");
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->CheckInvariants().ok());
  // The index answers queries over the recovered rows.
  EXPECT_EQ((*index)->CountRange(0, 256), 300u);
}

TEST(DurableCatalogTest, MutationsAfterRecoveryKeepWorking) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 50).ok());
  }
  env.SimulateCrash();
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.GetTable("items");
    ASSERT_TRUE(table.ok());
    // Keep writing through the re-installed hooks, then crash again.
    for (int64_t i = 50; i < 80; ++i) {
      ASSERT_TRUE(
          (*table)->Insert({i * 11 % 257, "item " + std::to_string(i)}).ok());
    }
  }
  env.SimulateCrash();
  Catalog final_catalog;
  auto durable = DurableCatalog::Open("/db", &final_catalog,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  ExpectItemsEqual(final_catalog, 80);
}

TEST(DurableCatalogTest, CheckpointMakesReopenClean) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 200).ok());
    ASSERT_TRUE((*table)->CreateIndex("c").ok());
    ASSERT_TRUE((*durable)->Checkpoint().ok());
  }
  env.SimulateCrash();

  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  // Clean reopen: nothing replayed; rows and the index come from the
  // checkpoint image.
  EXPECT_FALSE((*durable)->recovered_from_crash());
  ExpectItemsEqual(recovered, 200);
  auto table = recovered.GetTable("items");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->HasIndex("c"));
  EXPECT_EQ((*(*table)->GetIndex("c"))->CountRange(0, 256), 200u);
}

TEST(DurableCatalogTest, UpdateValueSurvivesCrash) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 20).ok());
    ASSERT_TRUE((*table)->CreateIndex("c").ok());
    // The key-rotation pattern: rewrite a ciphertext in place.
    ASSERT_TRUE((*table)->UpdateValue(7, 0, Value(int64_t{9999})).ok());
  }
  env.SimulateCrash();

  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  auto table = recovered.GetTable("items");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row(7)[0], Value(int64_t{9999}));
  auto index = (*table)->GetIndex("c");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->CountRange(9999, 9999), 1u);
}

TEST(DurableCatalogTest, DropTableSurvivesCrash) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto keep = catalog.CreateTable("keep", ItemsSchema());
    auto drop = catalog.CreateTable("doomed", ItemsSchema());
    ASSERT_TRUE(keep.ok() && drop.ok());
    ASSERT_TRUE(FillItems(*keep, 10).ok());
    ASSERT_TRUE(FillItems(*drop, 10).ok());
    ASSERT_TRUE(catalog.DropTable("doomed").ok());
  }
  env.SimulateCrash();
  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_TRUE(recovered.GetTable("keep").ok());
  EXPECT_TRUE(recovered.GetTable("doomed").status().IsNotFound());
}

TEST(DurableCatalogTest, OpenRequiresEmptyCatalog) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("preexisting", ItemsSchema()).ok());
  auto durable =
      DurableCatalog::Open("/db", &catalog, TestOptions(&env, &metrics));
  EXPECT_FALSE(durable.ok());
}

TEST(DurableCatalogTest, StorageMetricsLandInProvidedRegistry) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  Catalog catalog;
  auto durable =
      DurableCatalog::Open("/db", &catalog, TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok());
  auto table = catalog.CreateTable("items", ItemsSchema());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(FillItems(*table, 100).ok());
  EXPECT_GT(metrics.GetCounter("storage.wal.records")->Value(), 0u);
  EXPECT_GT(metrics.GetCounter("storage.wal.bytes")->Value(), 0u);
}

TEST(DbServerStorageTest, OpenStorageRecoversServedData) {
  storage::InMemEnv env;
  {
    DbServer server;
    EXPECT_FALSE(server.has_storage());
    DurableCatalog::Options options;
    options.env = &env;
    options.wal_sync_every = 1;
    ASSERT_TRUE(server.OpenStorage("/db", options).ok());
    EXPECT_TRUE(server.has_storage());
    auto table = server.catalog()->CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 40).ok());
    ASSERT_TRUE((*table)->CreateIndex("c").ok());
    ASSERT_TRUE(server.SyncStorage().ok());
    // Double-attach is rejected.
    EXPECT_FALSE(server.OpenStorage("/db", options).ok());
  }
  env.SimulateCrash();

  DbServer server;
  DurableCatalog::Options options;
  options.env = &env;
  ASSERT_TRUE(server.OpenStorage("/db", options).ok());
  ASSERT_TRUE(server.durable_catalog() != nullptr);
  EXPECT_TRUE(server.durable_catalog()->recovered_from_crash());
  ExpectItemsEqual(*server.catalog(), 40);
  // The recovered server answers range queries over the rebuilt index.
  auto rows = server.ExecuteRangeBatchWithIds(
      "items", "c", {ModularInterval(0, 257, 1024)});
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 40u);
  ASSERT_TRUE(server.CheckpointStorage().ok());
}

TEST(DbServerStorageTest, StorageCallsWithoutAttachFail) {
  DbServer server;
  EXPECT_TRUE(server.CheckpointStorage().IsInvalidArgument());
  EXPECT_TRUE(server.SyncStorage().IsInvalidArgument());
  EXPECT_EQ(server.durable_catalog(), nullptr);
}

TEST(DurableCatalogTest, ImportCatalogFlowsThroughHooks) {
  // The --data-dir bootstrap path: a snapshot-loaded catalog replayed into
  // a storage-backed one must be durable.
  Catalog source;
  auto src_table = source.CreateTable("items", ItemsSchema());
  ASSERT_TRUE(src_table.ok());
  ASSERT_TRUE(FillItems(*src_table, 60).ok());
  ASSERT_TRUE((*src_table)->CreateIndex("c").ok());

  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE(ImportCatalog(source, &catalog).ok());
  }
  env.SimulateCrash();

  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  ExpectItemsEqual(recovered, 60);
  EXPECT_TRUE((*recovered.GetTable("items"))->HasIndex("c"));
}

TEST(DurableCatalogTest, TornTailDoesNotHideLaterCommits) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 5).ok());
    ASSERT_TRUE((*durable)->Checkpoint().ok());
  }
  // A crash mid-append left part of a frame header behind, synced.
  {
    auto wal = env.OpenAppend("/db/wal.log", /*truncate=*/false);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(std::string(10, '\x7f')).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  env.SimulateCrash();
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok()) << durable.status();
    auto table = catalog.GetTable("items");
    ASSERT_TRUE(table.ok());
    // wal_sync_every=1: acknowledged means durable.
    ASSERT_TRUE((*table)->Insert({int64_t{5 * 11 % 257}, "item 5"}).ok());
  }
  env.SimulateCrash();

  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  ExpectItemsEqual(recovered, 6);
}

TEST(DurableCatalogTest, GrowingUpdateAndOversizedRowSurviveCrash) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  const std::string grown = "item 1, rewritten much longer than before";
  const std::string big(5000, 'b');
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 3).ok());
    ASSERT_TRUE((*table)->CreateIndex("c").ok());
    // Both succeed on an in-memory catalog; attaching storage must not
    // narrow what the engine accepts.
    const Status updated = (*table)->UpdateValue(1, 1, Value(grown));
    ASSERT_TRUE(updated.ok()) << updated;
    const auto inserted = (*table)->Insert({int64_t{3}, big});
    ASSERT_TRUE(inserted.ok()) << inserted.status();
  }
  env.SimulateCrash();

  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  auto table = recovered.GetTable("items");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->row_count(), 4u);
  EXPECT_EQ((*table)->row(1)[1], Value(grown));
  EXPECT_EQ((*table)->row(3)[1], Value(big));
  EXPECT_EQ((*(*table)->GetIndex("c"))->CountRange(3, 3), 1u);
}

/// Crash after every step of the mixed schedule, with one checkpoint
/// partway: the recovered catalog must serialize to exactly the model's
/// bytes (wal_sync_every=1 makes every completed step committed).
TEST(DurableCatalogTest, CrashAtEveryPointRecoversExactPrefix) {
  const std::vector<Step> steps = MixedSchedule();
  const size_t checkpoint_at = steps.size() / 2;

  for (size_t crash_at = 0; crash_at <= steps.size(); ++crash_at) {
    storage::InMemEnv env;
    obs::MetricsRegistry metrics;
    Catalog model;
    {
      Catalog catalog;
      auto durable = DurableCatalog::Open("/db", &catalog,
                                          TestOptions(&env, &metrics));
      ASSERT_TRUE(durable.ok());
      for (size_t i = 0; i < crash_at; ++i) {
        if (i == checkpoint_at) {
          ASSERT_TRUE((*durable)->Checkpoint().ok());
        }
        ASSERT_TRUE(steps[i](&catalog).ok()) << "step " << i;
        ASSERT_TRUE(steps[i](&model).ok()) << "step " << i;
      }
    }
    env.SimulateCrash();

    Catalog recovered;
    auto durable = DurableCatalog::Open("/db", &recovered,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok()) << "crash_at=" << crash_at << ": "
                              << durable.status();
    EXPECT_EQ(Image(recovered), Image(model)) << "crash_at=" << crash_at;
  }
}

/// Decoder sweep over the log: cutting wal.log at every byte offset must
/// recover exactly the records wholly before the cut — never fail, never
/// half-apply a record.
TEST(DurableCatalogTest, WalCutAtEveryByteRecoversAnExactPrefix) {
  const std::vector<Step> steps = MixedSchedule();
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  std::vector<std::string> images;  // the catalog after k records
  std::vector<size_t> ends;         // wal.log's size after k records
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    for (size_t k = 0; k <= steps.size(); ++k) {
      if (k > 0) {
        ASSERT_TRUE(steps[k - 1](&catalog).ok()) << "step " << k;
      }
      images.push_back(Image(catalog));
      auto wal = env.ReadFile("/db/wal.log");
      ASSERT_TRUE(wal.ok());
      ends.push_back(wal->size());
    }
  }
  auto wal = env.ReadFile("/db/wal.log");
  ASSERT_TRUE(wal.ok());

  size_t whole = 0;  // records wholly inside the cut
  for (size_t cut = 0; cut <= wal->size(); ++cut) {
    while (whole + 1 < ends.size() && ends[whole + 1] <= cut) ++whole;
    storage::InMemEnv cut_env;
    ASSERT_TRUE(
        cut_env.WriteFileAtomic("/db/wal.log", wal->substr(0, cut)).ok());
    Catalog recovered;
    auto durable = DurableCatalog::Open("/db", &recovered,
                                        TestOptions(&cut_env, &metrics));
    ASSERT_TRUE(durable.ok()) << "cut=" << cut << ": " << durable.status();
    EXPECT_EQ(Image(recovered), images[whole]) << "cut=" << cut;
  }
}

/// Decoder sweep over the checkpoint: flipping any single byte of
/// storage.meta is Corruption at open, never a crash or a wrong catalog.
TEST(DurableCatalogTest, MetaByteFlipIsCorruptionNotACrash) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 5).ok());
    ASSERT_TRUE((*table)->CreateIndex("c").ok());
    ASSERT_TRUE((*durable)->Checkpoint().ok());
  }
  auto meta = env.ReadFile("/db/storage.meta");
  ASSERT_TRUE(meta.ok());
  for (size_t i = 0; i < meta->size(); ++i) {
    for (const int mask : {0x01, 0xff}) {
      std::string flipped = *meta;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      storage::InMemEnv flip_env;
      ASSERT_TRUE(flip_env.WriteFileAtomic("/db/storage.meta", flipped).ok());
      Catalog recovered;
      auto durable = DurableCatalog::Open("/db", &recovered,
                                          TestOptions(&flip_env, &metrics));
      ASSERT_FALSE(durable.ok()) << "byte " << i;
      EXPECT_TRUE(durable.status().IsCorruption())
          << "byte " << i << ": " << durable.status();
    }
  }
}

TEST(DurableCatalogTest, FailedCheckpointKeepsTheOldImageAndTheLog) {
  storage::InMemEnv base;
  storage::FaultyEnv env(&base);
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 10).ok());
    ASSERT_TRUE((*durable)->Checkpoint().ok());
    for (int64_t i = 10; i < 20; ++i) {
      ASSERT_TRUE(
          (*table)->Insert({i * 11 % 257, "item " + std::to_string(i)}).ok());
    }
    // Every row is already synced, so the image write is the checkpoint's
    // first write: it fails, and the truncate after it must not run.
    storage::FaultyEnv::Faults faults;
    faults.fail_after_writes = env.writes_issued();
    env.set_faults(faults);
    EXPECT_FALSE((*durable)->Checkpoint().ok());
  }
  base.SimulateCrash();

  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&base, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_TRUE((*durable)->recovered_from_crash());
  ExpectItemsEqual(recovered, 20);
}

TEST(DurableCatalogTest, FailedReplayNamesTheRecordLsn) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE(catalog.CreateTable("items", ItemsSchema()).ok());
    // A well-framed record the engine never writes: a row of the wrong
    // arity. Table::Insert's own validation must reject it on replay.
    std::string bad;
    bad.push_back(4);  // insert
    PutString(&bad, "items");
    PutU64(&bad, 1);
    PutValue(&bad, Value(int64_t{1}));
    ASSERT_TRUE((*durable)->storage()->Log(bad).ok());
  }
  env.SimulateCrash();
  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&env, &metrics));
  ASSERT_FALSE(durable.ok());
  EXPECT_TRUE(durable.status().IsCorruption()) << durable.status();
  EXPECT_NE(durable.status().message().find("LSN 2"), std::string::npos)
      << durable.status();
}

}  // namespace
}  // namespace mope::engine
