#include "engine/table.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/codec.h"
#include "workload/tpch.h"

namespace mope::engine {
namespace {

Schema TestSchema() {
  return Schema({Column{"id", ValueType::kInt},
                 Column{"price", ValueType::kDouble},
                 Column{"name", ValueType::kString}});
}

TEST(SchemaTest, IndexOfResolvesColumns) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.IndexOf("id").value(), 0u);
  EXPECT_EQ(s.IndexOf("name").value(), 2u);
  EXPECT_TRUE(s.IndexOf("missing").status().IsNotFound());
}

TEST(SchemaTest, ValidateChecksArityAndTypes) {
  const Schema s = TestSchema();
  EXPECT_TRUE(s.Validate({int64_t{1}, 2.5, std::string("x")}).ok());
  EXPECT_FALSE(s.Validate({int64_t{1}, 2.5}).ok());
  EXPECT_FALSE(s.Validate({2.5, 2.5, std::string("x")}).ok());
  EXPECT_FALSE(s.Validate({int64_t{1}, 2.5, int64_t{3}}).ok());
}

TEST(ValueTest, TypeOfAndToString) {
  EXPECT_EQ(TypeOf(Value{int64_t{3}}), ValueType::kInt);
  EXPECT_EQ(TypeOf(Value{1.5}), ValueType::kDouble);
  EXPECT_EQ(TypeOf(Value{std::string("a")}), ValueType::kString);
  EXPECT_EQ(ValueToString(Value{int64_t{42}}), "42");
  EXPECT_EQ(ValueToString(Value{std::string("hi")}), "hi");
}

TEST(TableTest, InsertAndRead) {
  Table t("t", TestSchema());
  const auto id = t.Insert({int64_t{7}, 1.25, std::string("a")});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 0u);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(std::get<int64_t>(t.row(0)[0]), 7);
}

TEST(TableTest, InsertValidatesSchema) {
  Table t("t", TestSchema());
  EXPECT_FALSE(t.Insert({int64_t{7}}).ok());
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(TableTest, CreateIndexOnIntColumn) {
  Table t("t", TestSchema());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Insert({i % 10, 0.0, std::string("r")}).ok());
  }
  ASSERT_TRUE(t.CreateIndex("id").ok());
  const auto index = t.GetIndex("id");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->CountRange(3, 3), 10u);
  EXPECT_EQ((*index)->CountRange(0, 9), 100u);
  EXPECT_TRUE(t.HasIndex("id"));
  EXPECT_FALSE(t.HasIndex("price"));
}

TEST(TableTest, IndexMaintainedOnLaterInserts) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex("id").ok());
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.Insert({i, 0.0, std::string("r")}).ok());
  }
  EXPECT_EQ((*t.GetIndex("id"))->CountRange(10, 19), 10u);
}

TEST(TableTest, IndexRejectsNonIntColumns) {
  Table t("t", TestSchema());
  EXPECT_TRUE(t.CreateIndex("price").IsNotSupported());
  EXPECT_TRUE(t.CreateIndex("nope").IsNotFound());
}

TEST(TableTest, DuplicateIndexRejected) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex("id").ok());
  EXPECT_TRUE(t.CreateIndex("id").IsAlreadyExists());
}

TEST(TableTest, NegativeIndexedValueRejected) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex("id").ok());
  EXPECT_FALSE(t.Insert({int64_t{-1}, 0.0, std::string("r")}).ok());
}

TEST(CatalogTest, CreateAndLookup) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("a", TestSchema()).ok());
  ASSERT_TRUE(c.CreateTable("b", TestSchema()).ok());
  EXPECT_TRUE(c.GetTable("a").ok());
  EXPECT_TRUE(c.GetTable("missing").status().IsNotFound());
  EXPECT_TRUE(c.CreateTable("a", TestSchema()).status().IsAlreadyExists());
  EXPECT_EQ(c.TableNames(), (std::vector<std::string>{"a", "b"}));
}


TEST(TableTest, UpdateValueRewritesCellAndIndex) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex("id").ok());
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(t.Insert({i, 0.0, std::string("r")}).ok());
  }
  ASSERT_TRUE(t.UpdateValue(5, 0, Value{int64_t{100}}).ok());
  EXPECT_EQ(std::get<int64_t>(t.row(5)[0]), 100);
  const auto index = t.GetIndex("id");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->CountRange(5, 5), 0u);
  EXPECT_EQ((*index)->CountRange(100, 100), 1u);
  EXPECT_EQ((*index)->size(), 20u);
  EXPECT_TRUE((*index)->CheckInvariants().ok());
}

TEST(TableTest, UpdateValueValidates) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.Insert({int64_t{1}, 0.0, std::string("r")}).ok());
  EXPECT_TRUE(t.UpdateValue(1, 0, Value{int64_t{2}}).IsOutOfRange());
  EXPECT_TRUE(t.UpdateValue(0, 3, Value{int64_t{2}}).IsOutOfRange());
  EXPECT_TRUE(t.UpdateValue(0, 0, Value{1.5}).IsInvalidArgument());
}

TEST(TableTest, UpdateValueOnUnindexedColumn) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.Insert({int64_t{1}, 0.0, std::string("r")}).ok());
  ASSERT_TRUE(t.UpdateValue(0, 1, Value{2.75}).ok());
  EXPECT_DOUBLE_EQ(std::get<double>(t.row(0)[1]), 2.75);
}

TEST(TableTest, UpdateIndexedValueRejectsNegative) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex("id").ok());
  ASSERT_TRUE(t.Insert({int64_t{1}, 0.0, std::string("r")}).ok());
  EXPECT_TRUE(t.UpdateValue(0, 0, Value{int64_t{-3}}).IsInvalidArgument());
}

TEST(TableTest, FailedInsertLeavesNoDanglingIndexEntries) {
  // Regression: with two indexes, a negative value in the *second* indexed
  // column used to fail after the first index was already updated, leaving a
  // dangling entry for a RowId that the next successful insert then reused.
  Table t("t", Schema({Column{"a", ValueType::kInt},
                       Column{"b", ValueType::kInt}}));
  ASSERT_TRUE(t.CreateIndex("a").ok());
  ASSERT_TRUE(t.CreateIndex("b").ok());
  ASSERT_TRUE(t.Insert({int64_t{1}, int64_t{-5}}).status().IsInvalidArgument());
  EXPECT_EQ(t.row_count(), 0u);

  const auto id = t.Insert({int64_t{2}, int64_t{3}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 0u);

  const auto index_a = t.GetIndex("a");
  ASSERT_TRUE(index_a.ok());
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  index_a.value()->ScanRange(0, ~uint64_t{0},
                             [&entries](uint64_t key, uint64_t rid) {
                               entries.emplace_back(key, rid);
                             });
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, 2u);   // the successful row's key, not 1
  EXPECT_EQ(entries[0].second, 0u);  // RowId 0 maps to the real row
}

TEST(CatalogTest, DropTableRemovesTable) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", TestSchema()).ok());
  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_TRUE(catalog.GetTable("t").status().IsNotFound());
  EXPECT_TRUE(catalog.DropTable("t").IsNotFound());
  // The name is reusable after the drop.
  EXPECT_TRUE(catalog.CreateTable("t", TestSchema()).ok());
}

// --- Rows stored as their codec bytes -------------------------------------

/// Durability hooks that record each insert's bytes and fail on demand.
class RecordingHooks final : public TableDurabilityHooks {
 public:
  Status OnInsert(RowId /*id*/, uint64_t count,
                  std::string_view values) override {
    if (fail) return Status::Unavailable("injected hook failure");
    inserted.emplace_back(count, std::string(values));
    return Status::OK();
  }
  Status OnUpdateValue(RowId, size_t, const Value&) override {
    return Status::OK();
  }
  Status OnCreateIndex(size_t) override { return Status::OK(); }

  bool fail = false;
  std::vector<std::pair<uint64_t, std::string>> inserted;
};

/// The row's PutValue encodings.
std::string Encoded(const Row& row) {
  std::string out;
  for (const Value& v : row) PutValue(&out, v);
  return out;
}

/// Every (key, row id) entry of the index on `column`.
std::vector<std::pair<uint64_t, uint64_t>> Entries(const Table& t,
                                                   const std::string& column) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  const auto index = t.GetIndex(column);
  EXPECT_TRUE(index.ok());
  if (index.ok()) {
    (*index)->ScanRange(0, ~uint64_t{0}, [&entries](uint64_t key,
                                                    uint64_t rid) {
      entries.emplace_back(key, rid);
    });
  }
  return entries;
}

/// Checks that `t` holds exactly `rows`, byte for byte and decoded.
void ExpectRows(const Table& t, const std::vector<Row>& rows) {
  ASSERT_EQ(t.row_count(), rows.size());
  std::string arena;
  for (RowId id = 0; id < rows.size(); ++id) {
    EXPECT_EQ(t.row_bytes(id), Encoded(rows[id])) << "row " << id;
    EXPECT_EQ(t.row(id), rows[id]) << "row " << id;
    arena += Encoded(rows[id]);
  }
  EXPECT_EQ(t.arena(), arena);
}

TEST(TableArenaTest, RowsAreStoredAsTheirCodecBytes) {
  Table t("t", TestSchema());
  RecordingHooks hooks;
  t.set_durability_hooks(&hooks);
  const Row a = {int64_t{7}, 1.25, std::string("a")};
  const Row b = {int64_t{-3}, -0.5, std::string("a longer name")};
  ASSERT_TRUE(t.Insert(a).ok());
  ASSERT_TRUE(t.Insert(b).ok());
  ExpectRows(t, {a, b});
  // The hook gets exactly the stored bytes: a WAL insert record's body.
  ASSERT_EQ(hooks.inserted.size(), 2u);
  EXPECT_EQ(hooks.inserted[1], std::make_pair(uint64_t{3}, Encoded(b)));
}

TEST(TableArenaTest, FailedHookLeavesRowsArenaAndIndexesUnchanged) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex("id").ok());
  RecordingHooks hooks;
  t.set_durability_hooks(&hooks);
  const Row kept = {int64_t{5}, 1.0, std::string("kept")};
  ASSERT_TRUE(t.Insert(kept).ok());
  const auto entries = Entries(t, "id");

  hooks.fail = true;
  EXPECT_TRUE(t.Insert({int64_t{9}, 2.0, std::string("lost")})
                  .status()
                  .IsUnavailable());
  ExpectRows(t, {kept});
  EXPECT_EQ(Entries(t, "id"), entries);

  // The next insert takes the RowId the failed one would have had.
  hooks.fail = false;
  const Row next = {int64_t{9}, 2.0, std::string("next")};
  const auto id = t.Insert(next);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1u);
  ExpectRows(t, {kept, next});
  EXPECT_EQ(Entries(t, "id"),
            (std::vector<std::pair<uint64_t, uint64_t>>{{5, 0}, {9, 1}}));
}

TEST(TableArenaTest, SameWidthUpdateStaysInPlace) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex("id").ok());
  std::vector<Row> rows = {{int64_t{1}, 1.0, std::string("aaa")},
                           {int64_t{2}, 2.0, std::string("bbb")},
                           {int64_t{3}, 3.0, std::string("ccc")}};
  for (const Row& row : rows) ASSERT_TRUE(t.Insert(row).ok());
  const char* row1 = t.row_bytes(1).data();
  const char* row2 = t.row_bytes(2).data();

  // Every int and double has one width, so key rotation never moves a row;
  // nor does a string of the same length.
  ASSERT_TRUE(t.UpdateValue(1, 0, int64_t{99}).ok());
  ASSERT_TRUE(t.UpdateValue(1, 1, -7.5).ok());
  ASSERT_TRUE(t.UpdateValue(1, 2, std::string("xyz")).ok());
  rows[1] = {int64_t{99}, -7.5, std::string("xyz")};
  EXPECT_EQ(t.row_bytes(1).data(), row1);
  EXPECT_EQ(t.row_bytes(2).data(), row2);
  ExpectRows(t, rows);
  EXPECT_EQ(Entries(t, "id"),
            (std::vector<std::pair<uint64_t, uint64_t>>{
                {1, 0}, {3, 2}, {99, 1}}));
}

TEST(TableArenaTest, WidthChangeShiftsLaterRows) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex("id").ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 4; ++i) {
    rows.push_back({i, 0.5 * static_cast<double>(i),
                    std::string("n") + std::to_string(i)});
    ASSERT_TRUE(t.Insert(rows.back()).ok());
  }

  // A growing string shifts every later row by the growth.
  const size_t before = t.row_bytes(2).data() - t.arena().data();
  ASSERT_TRUE(t.UpdateValue(1, 2, std::string(50, 'x')).ok());
  rows[1][2] = std::string(50, 'x');
  ExpectRows(t, rows);
  EXPECT_EQ(static_cast<size_t>(t.row_bytes(2).data() - t.arena().data()),
            before + 48);

  // A shrinking one shifts them back past the original place.
  ASSERT_TRUE(t.UpdateValue(1, 2, std::string()).ok());
  rows[1][2] = std::string();
  ExpectRows(t, rows);
  EXPECT_EQ(static_cast<size_t>(t.row_bytes(2).data() - t.arena().data()),
            before - 2);

  // The last row has nothing behind it to shift, and an int in a shifted
  // row still updates in place and in the index.
  ASSERT_TRUE(t.UpdateValue(3, 2, std::string("last row, longer")).ok());
  rows[3][2] = std::string("last row, longer");
  ASSERT_TRUE(t.UpdateValue(2, 0, int64_t{40}).ok());
  rows[2][0] = int64_t{40};
  ExpectRows(t, rows);
  EXPECT_EQ(Entries(t, "id"),
            (std::vector<std::pair<uint64_t, uint64_t>>{
                {0, 0}, {1, 1}, {3, 3}, {40, 2}}));
}

TEST(TableArenaTest, InsertCheckedCopiesCheckedBytesAndValidatesThem) {
  Table t("t", TestSchema());
  ASSERT_TRUE(t.CreateIndex("id").ok());
  const Row good = {int64_t{4}, 0.25, std::string("four")};
  // Each candidate's bytes as a snapshot or WAL record carries them: the
  // codec checks them, the table checks them against its schema.
  const auto insert = [&t](const Row& row) {
    const std::string bytes = Encoded(row);
    ByteReader reader(bytes, "test");
    const Result<CheckedRow> checked = reader.CheckRow(row.size());
    EXPECT_TRUE(checked.ok()) << checked.status();
    return t.InsertChecked(*checked);
  };
  ASSERT_TRUE(insert(good).ok());
  ExpectRows(t, {good});

  const Status arity = insert({int64_t{5}, 0.5}).status();
  EXPECT_TRUE(arity.IsInvalidArgument()) << arity;
  const Status tag = insert({int64_t{5}, int64_t{6}, std::string("x")}).status();
  EXPECT_TRUE(tag.IsInvalidArgument()) << tag;
  EXPECT_NE(tag.message().find("'price'"), std::string::npos) << tag;
  const Status negative =
      insert({int64_t{-1}, 0.5, std::string("x")}).status();
  EXPECT_TRUE(negative.IsInvalidArgument()) << negative;
  ExpectRows(t, {good});
  EXPECT_EQ(Entries(t, "id"),
            (std::vector<std::pair<uint64_t, uint64_t>>{{4, 0}}));
}

TEST(TableArenaTest, ReadRowReusesTheRowsStorage) {
  Table t("t", TestSchema());
  const std::string long_name(40, 'L');
  ASSERT_TRUE(t.Insert({int64_t{1}, 1.0, long_name}).ok());
  ASSERT_TRUE(t.Insert({int64_t{2}, 2.0, std::string(30, 'S')}).ok());
  Row row;
  t.ReadRow(0, &row);
  EXPECT_EQ(row, (Row{int64_t{1}, 1.0, long_name}));
  // A string that fits is decoded into the one already there.
  const char* storage = std::get<std::string>(row[2]).data();
  t.ReadRow(1, &row);
  EXPECT_EQ(row, (Row{int64_t{2}, 2.0, std::string(30, 'S')}));
  EXPECT_EQ(std::get<std::string>(row[2]).data(), storage);
}

TEST(TableArenaTest, StoredLineitemRowCostsAtMostOneHundredBytesOfHeap) {
  // A lineitem row is 81 bytes of encodings plus an 8-byte offset; the
  // arena grows by a sixteenth and the offsets by an eighth, not by
  // doubling, so this holds at any row count.
  workload::TpchConfig config;
  config.scale_factor = 0.0026;
  const workload::TpchData data = workload::GenerateTpch(config);
  ASSERT_GT(data.lineitem.size(), 10000u);
  const auto heap_in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const size_t before = heap_in_use();
  Table t("lineitem", data.lineitem_schema);
  for (const Row& row : data.lineitem) ASSERT_TRUE(t.Insert(row).ok());
  const size_t after = heap_in_use();
  const double per_row = static_cast<double>(after - before) /
                         static_cast<double>(data.lineitem.size());
  EXPECT_LE(per_row, 100.0) << data.lineitem.size() << " rows, "
                            << t.arena().size() << " bytes of arena";
}

}  // namespace
}  // namespace mope::engine
