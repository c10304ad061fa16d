/// Golden bytes for the three formats that outlive one process: a
/// range-batch reply frame (the wire), a WAL holding a create-table and an
/// insert record, and a storage.meta checkpoint.
///
/// Each literal is the exact byte string this build writes, CRCs included.
/// A change that alters one breaks every older peer, log and checkpoint, so
/// the encoders must keep producing these bytes and the decoders and
/// recovery must keep accepting them. Each payload is longer than 64 bytes,
/// so its CRC also exercises the folding kernel where the host has one.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/durability.h"
#include "engine/server.h"
#include "engine/table.h"
#include "net/dispatcher.h"
#include "net/wire.h"
#include "obs/registry.h"
#include "storage/env.h"

namespace mope {
namespace {

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::Value;
using engine::ValueType;

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xF]);
  }
  return out;
}

std::string FromHex(std::string_view hex) {
  auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

// --- The wire: one range-batch reply --------------------------------------

/// "data"(key int, price double, tag string, note string): four rows with
/// empty, binary and long strings.
const std::vector<Row>& DataRows() {
  static const std::vector<Row> rows = {
      {int64_t{3}, 0.5, std::string(""), std::string("first")},
      {int64_t{5}, -2.25, std::string("t\0\xff", 3), std::string("")},
      {int64_t{6}, 1e9, std::string(40, 'x'), std::string("last row")},
      {int64_t{9}, 0.0, std::string("out"), std::string("of range")},
  };
  return rows;
}

constexpr char kReplyFrameHex[] =
    "57504f4d01020000d0000000bf4bc36903000000000000000000000000000000"
    "0400000000030000000000000001000000000000e03f02000000000000000002"
    "0500000000000000666972737401000000000000000400000000050000000000"
    "00000100000000000002c00203000000000000007400ff020000000000000000"
    "020000000000000004000000000600000000000000010000000065cdcd410228"
    "0000000000000078787878787878787878787878787878787878787878787878"
    "7878787878787878787878787878780208000000000000006c61737420726f77";

TEST(FormatGoldenTest, RangeBatchReplyFrame) {
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "data", Schema({Column{"key", ValueType::kInt},
                      Column{"price", ValueType::kDouble},
                      Column{"tag", ValueType::kString},
                      Column{"note", ValueType::kString}}));
  ASSERT_TRUE(table.ok());
  for (const Row& row : DataRows()) ASSERT_TRUE((*table)->Insert(row).ok());
  ASSERT_TRUE((*table)->CreateIndex("key").ok());

  net::WireDispatcher dispatcher(&server);
  const std::string request =
      net::EncodeFrame(net::MessageType::kRangeBatchRequest,
                       net::EncodeRangeBatchRequest(
                           {"data", "key", {ModularInterval(2, 5, 16)}}));
  size_t consumed = 0;
  auto reply = dispatcher.HandleFrameBytes(request, &consumed);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(ToHex(*reply), kReplyFrameHex);

  // Rows 0-2 (keys 3, 5, 6) are in [2, 7); the decoders accept the literal.
  const std::string golden = FromHex(kReplyFrameHex);
  auto frame = net::ParseFrame(golden, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(consumed, golden.size());
  const net::RowsWithIds expected = {
      {0, DataRows()[0]}, {1, DataRows()[1]}, {2, DataRows()[2]}};
  auto rows = net::DecodeRangeBatchReply(frame->payload);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, expected);
  const net::RowFilter filter{0, ModularInterval(4, 2, 16)};
  net::RowsWithIds kept;
  auto shipped = net::DecodeRangeBatchReply(frame->payload, &filter, &kept);
  ASSERT_TRUE(shipped.ok()) << shipped.status();
  EXPECT_EQ(*shipped, 3u);
  EXPECT_EQ(kept, (net::RowsWithIds{{1, DataRows()[1]}}));
}

// --- The disk: a WAL and a checkpoint -------------------------------------

engine::DurableCatalog::Options GoldenOptions(storage::Env* env,
                                              obs::MetricsRegistry* metrics) {
  engine::DurableCatalog::Options options;
  options.env = env;
  options.metrics = metrics;
  options.wal_sync_every = 1;
  return options;
}

Schema ItemsSchema() {
  return Schema({Column{"c", ValueType::kInt},
                 Column{"label", ValueType::kString},
                 Column{"w", ValueType::kDouble}});
}

const Row kWalRow = {int64_t{-5}, std::string("a WAL row whose label is long "
                                              "enough to fold\0twice", 50),
                     2.5};

constexpr char kWalHex[] =
    "55827cdb380000000100000000000000010105000000000000006974656d7303"
    "000000000000000100000000000000630005000000000000006c6162656c0201"
    "000000000000007701c9f0c9ee63000000020000000000000001040500000000"
    "0000006974656d73030000000000000000fbffffffffffffff02320000000000"
    "0000612057414c20726f772077686f7365206c6162656c206973206c6f6e6720"
    "656e6f75676820746f20666f6c64007477696365010000000000000440";

TEST(FormatGoldenTest, WalInsertRecord) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    engine::Catalog catalog;
    auto durable = engine::DurableCatalog::Open(
        "/db", &catalog, GoldenOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok()) << durable.status();
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Insert(kWalRow).ok());
  }
  auto wal = env.ReadFile("/db/wal.log");
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(ToHex(*wal), kWalHex);

  // Recovery replays the literal: the table and its one row come back.
  storage::InMemEnv golden_env;
  ASSERT_TRUE(golden_env.WriteFileAtomic("/db/wal.log", FromHex(kWalHex)).ok());
  engine::Catalog recovered;
  auto durable = engine::DurableCatalog::Open(
      "/db", &recovered, GoldenOptions(&golden_env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  auto table = recovered.GetTable("items");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->row_count(), 1u);
  EXPECT_EQ((*table)->row(0), kWalRow);
}

constexpr char kMetaHex[] =
    "4d4f50454d45543205000000000000000600000000000000c300000000000000"
    "4d4f5045534e5031010000000000000005000000000000006974656d73030000"
    "00000000000100000000000000630005000000000000006c6162656c02010000"
    "0000000000770101000000000000000100000000000000630300000000000000"
    "0000000000000000000206000000000000006974656d20300100000000000000"
    "000007000000000000000206000000000000006974656d203101000000000000"
    "e03f000e000000000000000206000000000000006974656d2032010000000000"
    "00f03f9b5c722b";

TEST(FormatGoldenTest, StorageMetaCheckpoint) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    engine::Catalog catalog;
    auto durable = engine::DurableCatalog::Open(
        "/db", &catalog, GoldenOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok()) << durable.status();
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*table)
                      ->Insert({i * 7, "item " + std::to_string(i),
                                0.5 * static_cast<double>(i)})
                      .ok());
    }
    ASSERT_TRUE((*table)->CreateIndex("c").ok());
    ASSERT_TRUE((*durable)->Checkpoint().ok());
  }
  auto meta = env.ReadFile("/db/storage.meta");
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_EQ(ToHex(*meta), kMetaHex);

  // Recovery loads the literal: rows and index come back.
  storage::InMemEnv golden_env;
  ASSERT_TRUE(
      golden_env.WriteFileAtomic("/db/storage.meta", FromHex(kMetaHex)).ok());
  engine::Catalog recovered;
  auto durable = engine::DurableCatalog::Open(
      "/db", &recovered, GoldenOptions(&golden_env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  auto table = recovered.GetTable("items");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->row_count(), 3u);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*table)->row(static_cast<engine::RowId>(i)),
              (Row{i * 7, "item " + std::to_string(i),
                   0.5 * static_cast<double>(i)}));
  }
  EXPECT_TRUE((*table)->HasIndex("c"));
}

}  // namespace
}  // namespace mope
