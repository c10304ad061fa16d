#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/registry.h"
#include "storage/env.h"

namespace mope::storage {
namespace {

StorageOptions TestOptions(Env* env, obs::MetricsRegistry* metrics,
                           uint64_t sync_every = 1) {
  StorageOptions options;
  options.env = env;
  options.metrics = metrics;
  options.wal_sync_every = sync_every;
  return options;
}

std::vector<std::string> Payloads(const std::vector<WalRecord>& records) {
  std::vector<std::string> out;
  for (const WalRecord& record : records) out.push_back(record.payload);
  return out;
}

// A toy owner for the opaque records: its state is a list of strings, an
// image is that list joined by '\n', and a record either appends
// ("A<text>") or rewrites one entry ("U<index>:<text>").
std::string EncodeList(const std::vector<std::string>& list) {
  std::string out;
  for (const std::string& item : list) out += item + "\n";
  return out;
}

std::vector<std::string> DecodeList(const std::string& image) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t end; (end = image.find('\n', start)) != std::string::npos;
       start = end + 1) {
    out.push_back(image.substr(start, end - start));
  }
  return out;
}

void ApplyOp(const std::string& op, std::vector<std::string>* list) {
  if (op[0] == 'A') {
    list->push_back(op.substr(1));
    return;
  }
  const size_t colon = op.find(':');
  (*list)[std::stoul(op.substr(1, colon - 1))] = op.substr(colon + 1);
}

TEST(StorageEngineTest, FreshDirectoryOpensEmpty) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_FALSE((*engine)->crash_recovered());
  EXPECT_TRUE((*engine)->TakeImage().empty());
  EXPECT_TRUE((*engine)->TakeRecords().empty());
}

TEST(StorageEngineTest, CrashRecoveryReplaysCommittedRecords) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  std::vector<std::string> logged = {"ddl"};
  {
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Log(logged[0]).ok());
    for (int i = 0; i < 50; ++i) {
      logged.push_back("row " + std::to_string(i));
      ASSERT_TRUE((*engine)->Log(logged.back()).ok());
    }
    // sync_every=1: every record is committed. No checkpoint: the meta
    // file does not even exist.
  }
  env.SimulateCrash();

  obs::MetricsRegistry metrics2;
  auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics2));
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->crash_recovered());
  EXPECT_EQ((*engine)->recovered_records(), logged.size());
  EXPECT_EQ(metrics2.GetCounter("storage.engine.recoveries")->Value(), 1u);
  EXPECT_TRUE((*engine)->TakeImage().empty());
  EXPECT_EQ(Payloads((*engine)->TakeRecords()), logged);
}

TEST(StorageEngineTest, CheckpointThenCrashIsCleanReopen) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  std::vector<std::string> list;
  {
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 30; ++i) {
      list.push_back("checkpointed " + std::to_string(i));
      ASSERT_TRUE((*engine)->Log("A" + list.back()).ok());
    }
    ASSERT_TRUE((*engine)->Checkpoint(EncodeList(list)).ok());
  }
  env.SimulateCrash();

  auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
  ASSERT_TRUE(engine.ok()) << engine.status();
  // Nothing to replay: the WAL was truncated at the checkpoint.
  EXPECT_FALSE((*engine)->crash_recovered());
  EXPECT_TRUE((*engine)->TakeRecords().empty());
  EXPECT_EQ(DecodeList((*engine)->TakeImage()), list);
}

TEST(StorageEngineTest, WorkAfterCheckpointAlsoRecovers) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*engine)->Log("Abefore").ok());
    }
    ASSERT_TRUE(
        (*engine)->Checkpoint(EncodeList(std::vector<std::string>(10, "before")))
            .ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*engine)->Log("Aafter").ok());
    }
  }
  env.SimulateCrash();

  auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE((*engine)->crash_recovered());
  std::vector<std::string> list = DecodeList((*engine)->TakeImage());
  for (const WalRecord& record : (*engine)->TakeRecords()) {
    ApplyOp(record.payload, &list);
  }
  std::vector<std::string> expected(10, "before");
  expected.insert(expected.end(), 10, "after");
  EXPECT_EQ(list, expected);
}

TEST(StorageEngineTest, RecoveryIsIdempotentAcrossRepeatedCrashes) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  std::vector<std::string> logged;
  {
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 25; ++i) {
      logged.push_back("stable " + std::to_string(i));
      ASSERT_TRUE((*engine)->Log(logged.back()).ok());
    }
  }
  // Crash, recover, crash again without checkpointing, recover again: the
  // same records come back every time.
  for (int round = 0; round < 3; ++round) {
    env.SimulateCrash();
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok()) << "round " << round << ": " << engine.status();
    EXPECT_EQ(Payloads((*engine)->TakeRecords()), logged) << "round "
                                                          << round;
  }
}

/// The exhaustive harness: run a deterministic mixed workload (appends,
/// same-size updates, one mid-way checkpoint), kill the process after every
/// possible prefix, and require recovery to produce exactly that prefix's
/// state. With sync_every=1 each completed operation is committed, so the
/// recovered state must match the in-memory model byte for byte.
TEST(StorageEngineTest, CrashAtEveryPointRecoversExactPrefix) {
  constexpr int kSteps = 36;
  constexpr int kCheckpointAt = 18;

  for (int crash_at = 0; crash_at <= kSteps; ++crash_at) {
    InMemEnv env;
    obs::MetricsRegistry metrics;
    std::vector<std::string> expected;

    {
      auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
      ASSERT_TRUE(engine.ok());
      for (int i = 0; i < crash_at; ++i) {
        if (i == kCheckpointAt) {
          ASSERT_TRUE((*engine)->Checkpoint(EncodeList(expected)).ok());
        }
        std::string op;
        if (i % 7 == 3 && !expected.empty()) {
          // Same-length rewrite (the rotation pattern).
          const size_t victim = static_cast<size_t>(i) % expected.size();
          op = "U" + std::to_string(victim) + ":" +
               std::string(expected[victim].size(), 'U');
        } else {
          op = "A" + std::string(120 + i, static_cast<char>('a' + i % 26));
        }
        ASSERT_TRUE((*engine)->Log(op).ok());
        ApplyOp(op, &expected);
      }
    }
    env.SimulateCrash();

    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok()) << "crash_at=" << crash_at << ": "
                             << engine.status();
    std::vector<std::string> recovered = DecodeList((*engine)->TakeImage());
    for (const WalRecord& record : (*engine)->TakeRecords()) {
      ApplyOp(record.payload, &recovered);
    }
    EXPECT_EQ(recovered, expected) << "crash_at=" << crash_at;
  }
}

TEST(StorageEngineTest, TornTailAloneStillCountsAsRecovery) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Checkpoint("image").ok());
  }
  // Half a frame header, synced, then the crash.
  auto wal = env.OpenAppend("/db/wal.log", /*truncate=*/false);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(std::string(10, '\x7f')).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  env.SimulateCrash();

  auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->TakeRecords().empty());
  // Nothing to replay, but the owner must still checkpoint before logging.
  EXPECT_TRUE((*engine)->crash_recovered());
}

TEST(StorageEngineTest, MetaCorruptionIsDetected) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Checkpoint("blob!").ok());
  }
  auto meta = env.ReadFile("/db/storage.meta");
  ASSERT_TRUE(meta.ok());
  std::string tampered = *meta;
  tampered[tampered.size() / 2] ^= 0x40;
  ASSERT_TRUE(env.WriteFileAtomic("/db/storage.meta", tampered).ok());
  auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
  EXPECT_FALSE(engine.ok());
}

TEST(StorageEngineTest, PagedFormatMetaIsRejectedByName) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  std::string old_meta = "MOPEMET1";
  old_meta.append(40, '\0');
  ASSERT_TRUE(env.WriteFileAtomic("/db/storage.meta", old_meta).ok());
  auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsNotSupported()) << engine.status();
  EXPECT_NE(engine.status().message().find("MOPEMET1"), std::string::npos);
}

}  // namespace
}  // namespace mope::storage
