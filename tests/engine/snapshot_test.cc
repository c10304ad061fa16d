#include "engine/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/coding.h"
#include "tests/testing/byte_sweep.h"

namespace mope::engine {
namespace {

Catalog MakeCatalog() {
  Catalog catalog;
  auto items = catalog.CreateTable(
      "items", Schema({Column{"k", ValueType::kInt},
                       Column{"price", ValueType::kDouble},
                       Column{"label", ValueType::kString}}));
  EXPECT_TRUE(items.ok());
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_TRUE((*items)
                    ->Insert({i % 37, static_cast<double>(i) * 0.5,
                              "row " + std::to_string(i)})
                    .ok());
  }
  EXPECT_TRUE((*items)->CreateIndex("k").ok());
  auto empty = catalog.CreateTable(
      "empty", Schema({Column{"x", ValueType::kInt}}));
  EXPECT_TRUE(empty.ok());
  return catalog;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  const Catalog original = MakeCatalog();
  auto bytes = SerializeCatalog(original);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto restored = DeserializeCatalog(bytes.value());
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ(restored->TableNames(), original.TableNames());
  auto orig_items = original.GetTable("items");
  auto rest_items = restored->GetTable("items");
  ASSERT_TRUE(orig_items.ok() && rest_items.ok());
  ASSERT_EQ((*rest_items)->row_count(), (*orig_items)->row_count());
  for (RowId r = 0; r < (*orig_items)->row_count(); ++r) {
    EXPECT_EQ((*rest_items)->row(r), (*orig_items)->row(r)) << r;
  }
  // Index rebuilt and usable.
  EXPECT_TRUE((*rest_items)->HasIndex("k"));
  auto index = (*rest_items)->GetIndex("k");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->CountRange(5, 5), (*(*orig_items)->GetIndex("k"))->CountRange(5, 5));
  EXPECT_TRUE((*index)->CheckInvariants().ok());
  // Empty table survives.
  EXPECT_EQ((*restored->GetTable("empty"))->row_count(), 0u);
}

TEST(SnapshotTest, RejectsBadMagic) {
  EXPECT_TRUE(DeserializeCatalog("NOTASNAP....").status().IsCorruption());
  EXPECT_TRUE(DeserializeCatalog("").status().IsCorruption());
}

TEST(SnapshotTest, RejectsTruncation) {
  auto bytes = SerializeCatalog(MakeCatalog());
  ASSERT_TRUE(bytes.ok());
  for (size_t cut : {bytes->size() - 1, bytes->size() / 2, size_t{9}}) {
    EXPECT_TRUE(DeserializeCatalog(bytes->substr(0, cut))
                    .status()
                    .IsCorruption())
        << cut;
  }
}

TEST(SnapshotTest, RejectsTrailingGarbage) {
  auto bytes = SerializeCatalog(MakeCatalog());
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(
      DeserializeCatalog(*bytes + "extra").status().IsCorruption());
}

TEST(SnapshotTest, SaveIsAtomicUnderWriteFailure) {
  storage::InMemEnv base;
  storage::FaultyEnv env(&base);
  const Catalog original = MakeCatalog();
  ASSERT_TRUE(SaveCatalog(original, "/snap", &env).ok());

  // Every subsequent write fails (torn, even): the failed save must leave
  // the previous snapshot byte-for-byte intact — never a prefix.
  Catalog bigger = MakeCatalog();
  ASSERT_TRUE((*bigger.GetTable("items"))->Insert({1, 2.0, "extra"}).ok());
  storage::FaultyEnv::Faults faults;
  faults.fail_after_writes = 0;
  faults.torn = true;
  env.set_faults(faults);
  EXPECT_FALSE(SaveCatalog(bigger, "/snap", &env).ok());

  faults = storage::FaultyEnv::Faults{};
  env.set_faults(faults);
  auto restored = LoadCatalog("/snap", &env);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored->GetTable("items"))->row_count(), 200u);
}

TEST(SnapshotTest, SaveSurvivesCrashWhole) {
  storage::InMemEnv env;
  ASSERT_TRUE(SaveCatalog(MakeCatalog(), "/snap", &env).ok());
  // kill -9 right after the save returns: the rename already happened and
  // was made durable by SaveCatalog itself, not a later sync.
  env.SimulateCrash();
  auto restored = LoadCatalog("/snap", &env);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored->GetTable("items"))->row_count(), 200u);
}

TEST(SnapshotTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mope_snapshot_test.bin";
  ASSERT_TRUE(SaveCatalog(MakeCatalog(), path).ok());
  auto restored = LoadCatalog(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored->GetTable("items"))->row_count(), 200u);
  std::remove(path.c_str());
  EXPECT_TRUE(LoadCatalog(path).status().IsNotFound());
}

// --- The loader against hostile images ------------------------------------

/// Two tables with int, double and string columns and one index: small
/// enough to flip every byte of.
Catalog MakeSmallCatalog() {
  Catalog catalog;
  auto items = catalog.CreateTable(
      "items", Schema({Column{"k", ValueType::kInt},
                       Column{"price", ValueType::kDouble},
                       Column{"label", ValueType::kString}}));
  EXPECT_TRUE(items.ok());
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE((*items)
                    ->Insert({i * 3, 0.5 * static_cast<double>(i),
                              std::string(static_cast<size_t>(i), 'r')})
                    .ok());
  }
  EXPECT_TRUE((*items)->CreateIndex("k").ok());
  auto notes = catalog.CreateTable(
      "notes", Schema({Column{"note", ValueType::kString},
                       Column{"n", ValueType::kInt}}));
  EXPECT_TRUE(notes.ok());
  EXPECT_TRUE((*notes)->Insert({std::string("a"), int64_t{-2}}).ok());
  return catalog;
}

TEST(SnapshotFuzzTest, EveryFlippedOrCutByteIsAnErrorOrReencodesExactly) {
  // Rows load as checked bytes without being built, so the loader's checks
  // are all that stands between a hostile image and the table.
  const auto image = SerializeCatalog(MakeSmallCatalog());
  ASSERT_TRUE(image.ok());
  const auto check = [](const std::string& mutant, const std::string& what) {
    const Result<Catalog> loaded = DeserializeCatalog(mutant);
    if (!loaded.ok()) {
      EXPECT_TRUE(loaded.status().IsCorruption() ||
                  loaded.status().IsInvalidArgument())
          << what << ": " << loaded.status();
      return;
    }
    const auto again = SerializeCatalog(*loaded);
    ASSERT_TRUE(again.ok()) << what;
    EXPECT_EQ(*again, mutant) << what;
  };
  sweep::ForEachFlip(*image, check);
  sweep::ForEachCut(*image, check);
}

/// An image of "t"(k int indexed, v double) holding the one row {5, 1.5},
/// which is its last 18 bytes.
std::string OneRowImage() {
  Catalog catalog;
  auto t = catalog.CreateTable("t", Schema({Column{"k", ValueType::kInt},
                                            Column{"v", ValueType::kDouble}}));
  EXPECT_TRUE(t.ok());
  EXPECT_TRUE((*t)->Insert({int64_t{5}, 1.5}).ok());
  EXPECT_TRUE((*t)->CreateIndex("k").ok());
  const auto image = SerializeCatalog(catalog);
  EXPECT_TRUE(image.ok());
  return image.ok() ? *image : std::string();
}

TEST(SnapshotFuzzTest, RowTagOfTheWrongTypeIsInvalidArgument) {
  std::string image = OneRowImage();
  ASSERT_TRUE(DeserializeCatalog(image).ok());
  const size_t k_tag = image.size() - 18;
  ASSERT_EQ(image[k_tag], static_cast<char>(ValueType::kInt));
  image[k_tag] = static_cast<char>(ValueType::kDouble);  // a valid tag
  const Result<Catalog> loaded = DeserializeCatalog(image);
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
}

TEST(SnapshotFuzzTest, NegativeIndexedIntIsInvalidArgument) {
  std::string image = OneRowImage();
  StoreU64(image.data() + image.size() - 17, static_cast<uint64_t>(-5));
  const Result<Catalog> loaded = DeserializeCatalog(image);
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
}

TEST(SnapshotFuzzTest, IndexListMustNameIntColumnsInOrder) {
  // What SerializeCatalog never writes: tables out of name order, an index
  // on an unknown or non-int column.
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("a", Schema({Column{"x", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(catalog.CreateTable("b", Schema({Column{"y", ValueType::kInt}}))
                  .ok());
  const auto image = SerializeCatalog(catalog);
  ASSERT_TRUE(image.ok());
  std::string swapped = *image;
  const size_t a_name = swapped.find('a', 8 + 8 + 8);
  const size_t b_name = swapped.find('b', a_name);
  ASSERT_NE(b_name, std::string::npos);
  std::swap(swapped[a_name], swapped[b_name]);
  EXPECT_TRUE(DeserializeCatalog(swapped).status().IsCorruption());

  std::string unknown = OneRowImage();
  const size_t index_name = unknown.rfind('k', unknown.size() - 18 - 8 - 1);
  ASSERT_NE(index_name, std::string::npos);
  unknown[index_name] = 'v';  // the double column
  EXPECT_TRUE(DeserializeCatalog(unknown).status().IsCorruption());
  unknown[index_name] = 'z';  // no such column
  EXPECT_TRUE(DeserializeCatalog(unknown).status().IsCorruption());
}

}  // namespace
}  // namespace mope::engine
