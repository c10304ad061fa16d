#include "storage/env.h"

#include <gtest/gtest.h>

namespace mope::storage {
namespace {

TEST(InMemEnvTest, ReadFileNotFound) {
  InMemEnv env;
  EXPECT_TRUE(env.ReadFile("/nope").status().IsNotFound());
  EXPECT_FALSE(env.FileExists("/nope"));
}

TEST(InMemEnvTest, AppendAndReadBack) {
  InMemEnv env;
  auto file = env.OpenAppend("/log", /*truncate=*/false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  auto contents = env.ReadFile("/log");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "hello world");
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);
}

TEST(InMemEnvTest, CrashRevertsToSyncedContents) {
  InMemEnv env;
  auto file = env.OpenAppend("/log", false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("committed").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append(" lost").ok());

  env.SimulateCrash();

  auto contents = env.ReadFile("/log");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "committed");
  // The pre-crash handle keeps working against the reverted state.
  ASSERT_TRUE((*file)->Append("+new").ok());
  EXPECT_EQ(*env.ReadFile("/log"), "committed+new");
}

TEST(InMemEnvTest, UnsyncedFileVanishesOnCrash) {
  InMemEnv env;
  auto file = env.OpenAppend("/log", false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("never synced").ok());
  env.SimulateCrash();
  EXPECT_EQ(*env.ReadFile("/log"), "");
}

TEST(InMemEnvTest, WriteFileAtomicSurvivesCrashWhole) {
  InMemEnv env;
  ASSERT_TRUE(env.WriteFileAtomic("/meta", "v1").ok());
  env.SimulateCrash();
  EXPECT_EQ(*env.ReadFile("/meta"), "v1");
  ASSERT_TRUE(env.WriteFileAtomic("/meta", "v2-longer").ok());
  env.SimulateCrash();
  // Old or new, never a prefix.
  EXPECT_EQ(*env.ReadFile("/meta"), "v2-longer");
}

TEST(InMemEnvTest, TruncateNotDurableUntilSync) {
  InMemEnv env;
  {
    auto file = env.OpenAppend("/log", false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("old records").ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  {
    // Re-open truncating, but crash before the truncation is synced: the
    // old bytes come back — exactly the case the checkpoint-LSN filter
    // exists for.
    auto file = env.OpenAppend("/log", /*truncate=*/true);
    ASSERT_TRUE(file.ok());
  }
  env.SimulateCrash();
  EXPECT_EQ(*env.ReadFile("/log"), "old records");
}

TEST(FaultyEnvTest, FailsAfterCountdownAndStaysDead) {
  InMemEnv base;
  FaultyEnv env(&base);
  FaultyEnv::Faults faults;
  faults.fail_after_writes = 2;
  env.set_faults(faults);

  auto file = env.OpenAppend("/log", false);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append("one").ok());
  EXPECT_TRUE((*file)->Append("two").ok());
  EXPECT_FALSE((*file)->Append("three").ok());
  // The disk does not come back.
  EXPECT_FALSE((*file)->Append("four").ok());
  EXPECT_EQ(*base.ReadFile("/log"), "onetwo");
}

TEST(FaultyEnvTest, TornWritePersistsPrefix) {
  InMemEnv base;
  FaultyEnv env(&base);
  FaultyEnv::Faults faults;
  faults.fail_after_writes = 0;
  faults.torn = true;
  faults.torn_fraction = 0.5;
  env.set_faults(faults);

  auto file = env.OpenAppend("/log", false);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Append("0123456789").ok());
  EXPECT_EQ(*base.ReadFile("/log"), "01234");
}

TEST(FaultyEnvTest, FailedSyncSurfaces) {
  InMemEnv base;
  FaultyEnv env(&base);
  FaultyEnv::Faults faults;
  faults.fail_sync = true;
  env.set_faults(faults);
  auto file = env.OpenAppend("/log", false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("data").ok());
  EXPECT_FALSE((*file)->Sync().ok());
}

TEST(PosixEnvTest, AtomicWriteAndReadBack) {
  Env* env = Env::Posix();
  const std::string path = ::testing::TempDir() + "/mope_env_test.bin";
  ASSERT_TRUE(env->WriteFileAtomic(path, std::string("abc\0def", 7)).ok());
  auto contents = env->ReadFile(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, std::string("abc\0def", 7));
  EXPECT_TRUE(env->FileExists(path));
  ASSERT_TRUE(env->RemoveFile(path).ok());
  EXPECT_FALSE(env->FileExists(path));
}

}  // namespace
}  // namespace mope::storage
