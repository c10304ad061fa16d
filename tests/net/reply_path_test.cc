/// The range-batch reply path: the dispatcher copies each row's stored bytes
/// into the reply frame, and the client's decoder checks every reply byte
/// but builds only the rows the proxy keeps.
///
/// The contracts under test: the dispatcher's frame is byte-identical to
/// encoding ExecuteRangeBatchWithIds' rows; the filtered decoder returns
/// exactly a full decode followed by the proxy's filter; no malformed reply
/// byte, in a kept row or a dropped one, ever aborts the client or yields
/// rows that differ from what the server sent; and a reply row without an
/// int key column, which no honest server produces, is Corruption at the
/// proxy, never a crash; and a row id a reply repeats, within one batch or
/// across two, the largest id included, reaches the client once, as its
/// first copy. The byte sweeps run over a reply with strings and over a
/// lineitem-shaped one without, so both of the row reader's paths see
/// every mutation. The same byte sweep covers the protocol's other
/// decoders: every cut is Corruption, and every flip is Corruption or a
/// message that re-encodes to exactly the flipped bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "engine/codec.h"
#include "engine/server.h"
#include "net/dispatcher.h"
#include "net/remote_connection.h"
#include "net/wire.h"
#include "proxy/proxy.h"
#include "query/query_types.h"
#include "tests/testing/byte_sweep.h"

namespace mope::net {
namespace {

using sweep::ForEachCut;
using sweep::ForEachFlip;

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::Value;
using engine::ValueType;

// --- Differential: filtered decode == full decode, then the filter --------

constexpr uint64_t kKeyDomain = 1000;

Value RandomValue(Rng* rng, ValueType type, bool is_key) {
  switch (type) {
    case ValueType::kInt:
      if (is_key) return static_cast<int64_t>(rng->UniformUint64(kKeyDomain));
      return static_cast<int64_t>(rng->NextWord());
    case ValueType::kDouble:
      return rng->UniformDouble() * 1e6 - 5e5;
    case ValueType::kString: {
      std::string s(rng->UniformUint64(21), '\0');
      for (char& c : s) c = static_cast<char>(rng->UniformUint64(256));
      return s;
    }
  }
  return Value{};
}

/// A reply as the proxy sees it: 1-12 columns of random types with an int
/// key column anywhere, 0-300 rows.
struct RandomReply {
  size_t key_column = 0;
  net::RowsWithIds rows;
};

RandomReply MakeRandomReply(Rng* rng) {
  const size_t num_columns = 1 + rng->UniformUint64(12);
  std::vector<ValueType> types;
  for (size_t c = 0; c < num_columns; ++c) {
    types.push_back(static_cast<ValueType>(rng->UniformUint64(3)));
  }
  RandomReply reply;
  reply.key_column = rng->UniformUint64(num_columns);
  types[reply.key_column] = ValueType::kInt;
  const uint64_t num_rows = rng->UniformUint64(301);
  for (uint64_t r = 0; r < num_rows; ++r) {
    Row row;
    for (size_t c = 0; c < num_columns; ++c) {
      row.push_back(RandomValue(rng, types[c], c == reply.key_column));
    }
    reply.rows.emplace_back(rng->NextWord(), std::move(row));
  }
  return reply;
}

/// Keep intervals, wrapping and full-domain ones included.
ModularInterval RandomKeep(Rng* rng) {
  switch (rng->UniformUint64(4)) {
    case 0:
      return ModularInterval(rng->UniformUint64(kKeyDomain), kKeyDomain,
                             kKeyDomain);
    case 1: {  // wraps past the end of the domain
      const uint64_t start = kKeyDomain - 1 - rng->UniformUint64(100);
      return ModularInterval(start, kKeyDomain - start + 1 +
                                        rng->UniformUint64(start),
                             kKeyDomain);
    }
    default:
      return ModularInterval(rng->UniformUint64(kKeyDomain),
                             1 + rng->UniformUint64(kKeyDomain), kKeyDomain);
  }
}

/// The proxy's filter applied to fully decoded rows.
net::RowsWithIds FilterRows(const net::RowsWithIds& rows, const RowFilter& f) {
  net::RowsWithIds kept;
  for (const auto& entry : rows) {
    const int64_t key = std::get<int64_t>(entry.second[f.key_column]);
    if (f.keep.Contains(static_cast<uint64_t>(key))) kept.push_back(entry);
  }
  return kept;
}

TEST(ReplyDecoderTest, FilteredDecodeEqualsFullDecodeThenFilter) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const RandomReply reply = MakeRandomReply(&rng);
    const RowFilter filter{reply.key_column, RandomKeep(&rng)};
    const std::string payload = EncodeRangeBatchReply(reply.rows);

    auto full = DecodeRangeBatchReply(payload);
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_EQ(*full, reply.rows) << "seed " << seed;

    net::RowsWithIds kept;
    auto shipped = DecodeRangeBatchReply(payload, &filter, &kept);
    ASSERT_TRUE(shipped.ok()) << shipped.status();
    EXPECT_EQ(*shipped, reply.rows.size()) << "seed " << seed;
    EXPECT_EQ(kept, FilterRows(*full, filter)) << "seed " << seed;
  }
}

// --- Mutation sweep --------------------------------------------------------

/// About ten rows with all three value types, key in column 1.
net::RowsWithIds ReferenceRows() {
  net::RowsWithIds rows;
  for (int64_t i = 0; i < 10; ++i) {
    rows.emplace_back(100 + i, Row{Value{0.25 * static_cast<double>(i)},
                                   Value{int64_t{50} * i},
                                   Value{std::string(i % 4, 'a' + i)}});
  }
  return rows;
}

const RowFilter kReferenceFilter{1, ModularInterval(100, 300, 1000)};

/// Eight lineitem-shaped rows, ints and doubles only, key in column 5: no
/// string, so every row takes the row reader's fixed-width tag scan.
net::RowsWithIds LineitemReferenceRows() {
  net::RowsWithIds rows;
  for (int64_t i = 0; i < 8; ++i) {
    const double d = static_cast<double>(i);
    rows.emplace_back(
        200 + i, Row{Value{int64_t{1000} + i}, Value{int64_t{7} * i},
                     Value{1.5 * d}, Value{100.25 * d}, Value{0.01 * d},
                     Value{int64_t{60} * i}, Value{int64_t{60} * i + 30},
                     Value{int64_t{60} * i + 45}, Value{i % 3}});
  }
  return rows;
}

const RowFilter kLineitemFilter{5, ModularInterval(100, 200, 1000)};

/// A reply the sweeps below mutate, and the filter they decode it with.
struct SweptReply {
  const char* name;
  net::RowsWithIds rows;
  RowFilter filter;
};

std::vector<SweptReply> SweptReplies() {
  return {{"mixed reference", ReferenceRows(), kReferenceFilter},
          {"lineitem-shaped reference", LineitemReferenceRows(),
           kLineitemFilter}};
}

/// Serves a fixed byte stream to every read and accepts every write: the
/// reply of a server that sends exactly these bytes.
class ScriptedTransport final : public Transport {
 public:
  explicit ScriptedTransport(std::string bytes) : bytes_(std::move(bytes)) {}

  Result<size_t> Read(char* buf, size_t max) override {
    const size_t n = std::min(max, bytes_.size() - pos_);
    bytes_.copy(buf, n, pos_);
    pos_ += n;
    return n;
  }
  Status Write(const char*, size_t) override { return Status::OK(); }
  void Close() override {}

 private:
  std::string bytes_;
  size_t pos_ = 0;
};

/// A connection whose peer answers with `bytes`, then hangs up.
std::unique_ptr<RemoteConnection> ConnectionServing(std::string bytes) {
  RemoteOptions options;
  options.max_retries = 0;
  options.backoff_initial_ms = 0;
  options.transport_factory =
      [bytes = std::move(bytes)]() -> Result<std::unique_ptr<Transport>> {
    return std::unique_ptr<Transport>(
        std::make_unique<ScriptedTransport>(bytes));
  };
  return std::make_unique<RemoteConnection>(std::move(options));
}

/// Runs the client's two range-batch decoders on a reply stream: each
/// outcome must be Corruption, Unavailable, or exactly the reference rows.
void ExpectCorruptionOrReference(const SweptReply& reference,
                                 const std::string& stream,
                                 const std::string& what) {
  const std::vector<ModularInterval> ranges = {ModularInterval(0, 10, 10)};
  auto full = ConnectionServing(stream)->ExecuteRangeBatch("t", "k", ranges);
  if (full.ok()) {
    EXPECT_EQ(*full, reference.rows) << what;
  } else {
    EXPECT_TRUE(full.status().IsCorruption() ||
                full.status().IsUnavailable())
        << what << ": " << full.status();
  }
  net::RowsWithIds kept;
  auto shipped = ConnectionServing(stream)->FetchRangeBatch(
      "t", "k", ranges, reference.filter.key_column, reference.filter.keep,
      &kept);
  if (shipped.ok()) {
    EXPECT_EQ(*shipped, reference.rows.size()) << what;
    EXPECT_EQ(kept, FilterRows(reference.rows, reference.filter)) << what;
  } else {
    EXPECT_TRUE(shipped.status().IsCorruption() ||
                shipped.status().IsUnavailable())
        << what << ": " << shipped.status();
  }
}

TEST(ReplyDecoderTest, EveryFlippedOrCutFrameByteIsAnErrorOrTheExactRows) {
  for (const SweptReply& reference : SweptReplies()) {
    const std::string frame =
        EncodeFrame(MessageType::kRangeBatchReply,
                    EncodeRangeBatchReply(reference.rows));
    const auto check = [&reference](const std::string& stream,
                                    const std::string& what) {
      ExpectCorruptionOrReference(reference, stream,
                                  std::string(reference.name) + ", " + what);
    };
    check(frame, "intact frame");
    ForEachFlip(frame, check);
    ForEachCut(frame, check);
  }
}

/// One of the protocol's other messages: its bytes, and a decode followed
/// by a re-encode of what was decoded.
struct SweptMessage {
  const char* name;
  std::string bytes;
  std::function<Result<std::string>(std::string_view)> reencode;
};

std::vector<SweptMessage> SweptMessages() {
  const RangeBatchRequest request{
      "lineitem", "l_shipdate",
      {ModularInterval(10, 5, 100), ModularInterval(95, 10, 100)}};
  const Schema schema({Column{"key", ValueType::kInt},
                       Column{"price", ValueType::kDouble},
                       Column{"tag", ValueType::kString}});
  return {
      {"range-batch request", EncodeRangeBatchRequest(request),
       [](std::string_view bytes) -> Result<std::string> {
         MOPE_ASSIGN_OR_RETURN(const RangeBatchRequest decoded,
                               DecodeRangeBatchRequest(bytes));
         return EncodeRangeBatchRequest(decoded);
       }},
      {"count reply", EncodeCountBatchReply(0x0102030405),
       [](std::string_view bytes) -> Result<std::string> {
         MOPE_ASSIGN_OR_RETURN(const uint64_t count,
                               DecodeCountBatchReply(bytes));
         return EncodeCountBatchReply(count);
       }},
      {"schema request", EncodeSchemaRequest("lineitem"),
       [](std::string_view bytes) -> Result<std::string> {
         MOPE_ASSIGN_OR_RETURN(const std::string table,
                               DecodeSchemaRequest(bytes));
         return EncodeSchemaRequest(table);
       }},
      {"schema reply", EncodeSchemaReply(schema),
       [](std::string_view bytes) -> Result<std::string> {
         MOPE_ASSIGN_OR_RETURN(const Schema decoded, DecodeSchemaReply(bytes));
         return EncodeSchemaReply(decoded);
       }},
      {"stats reply",
       EncodeStatsReply({{"engine.rows_returned", 7}, {"net.x", 1ull << 40}}),
       [](std::string_view bytes) -> Result<std::string> {
         MOPE_ASSIGN_OR_RETURN(const StatsReply stats,
                               DecodeStatsReply(bytes));
         return EncodeStatsReply(stats);
       }},
      {"status reply", EncodeStatusReply(Status::NotFound("no table 'x'")),
       [](std::string_view bytes) -> Result<std::string> {
         Status carried;
         MOPE_RETURN_NOT_OK(DecodeStatusReply(bytes, &carried));
         return EncodeStatusReply(carried);
       }},
  };
}

TEST(WireDecoderSweepTest, EveryFlipIsCorruptionOrReencodesExactly) {
  for (const SweptMessage& message : SweptMessages()) {
    const Result<std::string> intact = message.reencode(message.bytes);
    ASSERT_TRUE(intact.ok()) << message.name << ": " << intact.status();
    ASSERT_EQ(*intact, message.bytes) << message.name;
    ForEachFlip(message.bytes, [&message](const std::string& mutated,
                                          const std::string& what) {
      const Result<std::string> again = message.reencode(mutated);
      if (again.ok()) {
        EXPECT_EQ(*again, mutated) << message.name << ", " << what;
      } else {
        EXPECT_TRUE(again.status().IsCorruption())
            << message.name << ", " << what << ": " << again.status();
      }
    });
  }
}

TEST(WireDecoderSweepTest, EveryCutIsCorruption) {
  for (const SweptMessage& message : SweptMessages()) {
    ForEachCut(message.bytes, [&message](const std::string& prefix,
                                         const std::string& what) {
      const Status status = message.reencode(prefix).status();
      EXPECT_TRUE(status.IsCorruption())
          << message.name << ", " << what << ": " << status;
    });
  }
}

/// Serves `bytes`, then EOF, and records the largest read it was asked for.
class RecordingTransport final : public Transport {
 public:
  explicit RecordingTransport(std::string bytes) : bytes_(std::move(bytes)) {}

  Result<size_t> Read(char* buf, size_t max) override {
    largest_read_ = std::max(largest_read_, max);
    const size_t n = std::min(max, bytes_.size() - pos_);
    bytes_.copy(buf, n, pos_);
    pos_ += n;
    return n;
  }
  Status Write(const char*, size_t) override { return Status::OK(); }
  void Close() override {}

  size_t largest_read() const { return largest_read_; }

 private:
  std::string bytes_;
  size_t pos_ = 0;
  size_t largest_read_ = 0;
};

TEST(ReplyReadTest, ClaimedPayloadLengthDoesNotSizeTheRead) {
  // A header claiming the largest legal payload, a few bytes, then EOF: the
  // reader may only grow its buffer with the bytes that actually arrive.
  std::string stream = EncodeFrame(MessageType::kRangeBatchReply, "");
  StoreU32(stream.data() + 8, kMaxPayloadBytes);
  stream += "short";
  RecordingTransport transport(stream);
  std::string raw;
  const Status read = ReadFrameBytes(&transport, &raw);
  EXPECT_TRUE(read.IsUnavailable()) << read;
  EXPECT_LE(transport.largest_read(), size_t{1} << 20);
}

/// The frame's CRC stops every payload mutation above before the decoder
/// sees it. Here the decoder gets the mutated payloads themselves: each is
/// Corruption, or decodes — and then the filtered decode still equals the
/// full decode followed by the filter.
TEST(ReplyDecoderTest, EveryFlippedOrCutPayloadByteKeepsTheDecodersInStep) {
  for (const SweptReply& reference : SweptReplies()) {
    const RowFilter& filter = reference.filter;
    const auto check = [&reference, &filter](const std::string& mutant,
                                             const std::string& cause) {
      const std::string what = std::string(reference.name) + ", " + cause;
      auto full = DecodeRangeBatchReply(mutant);
      net::RowsWithIds kept;
      auto shipped = DecodeRangeBatchReply(mutant, &filter, &kept);
      if (!full.ok()) {
        EXPECT_TRUE(full.status().IsCorruption()) << what;
        EXPECT_TRUE(shipped.status().IsCorruption()) << what;
        EXPECT_TRUE(kept.empty()) << what;
        return;
      }
      // A decodable mutant can still hold a row the filter rejects (a key
      // column that is no longer an int): then only the filtered decode
      // fails.
      bool keyed = true;
      for (const auto& [rid, row] : *full) {
        keyed = keyed && row.size() > filter.key_column &&
                std::holds_alternative<int64_t>(row[filter.key_column]);
      }
      if (!keyed) {
        EXPECT_TRUE(shipped.status().IsCorruption()) << what;
        EXPECT_TRUE(kept.empty()) << what;
        return;
      }
      ASSERT_TRUE(shipped.ok()) << what << ": " << shipped.status();
      EXPECT_EQ(*shipped, full->size()) << what;
      EXPECT_EQ(kept, FilterRows(*full, filter)) << what;
    };
    const std::string payload = EncodeRangeBatchReply(reference.rows);
    ForEachFlip(payload, check);
    ForEachCut(payload, check);
  }
}

// --- Golden: the dispatcher's frame from table storage --------------------

/// "data"(key int, price double, tag string, note string), keys 0..59.
engine::DbServer MakeServer() {
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "data", Schema({Column{"key", ValueType::kInt},
                      Column{"price", ValueType::kDouble},
                      Column{"tag", ValueType::kString},
                      Column{"note", ValueType::kString}}));
  EXPECT_TRUE(table.ok());
  for (int64_t k = 0; k < 60; ++k) {
    EXPECT_TRUE((*table)
                    ->Insert({k, 1.5 * static_cast<double>(k),
                              std::string(static_cast<size_t>(k % 7), 't'),
                              std::string(k % 2 == 0 ? "" : "odd")})
                    .ok());
  }
  EXPECT_TRUE((*table)->CreateIndex("key").ok());
  return server;
}

/// The reply the dispatcher sends to one range-batch request frame.
std::string DispatchRangeBatch(engine::DbServer* server,
                               const std::vector<ModularInterval>& ranges,
                               uint64_t trace_id, bool profiled) {
  WireDispatcher dispatcher(server);
  const std::string request =
      EncodeFrame(MessageType::kRangeBatchRequest,
                  EncodeRangeBatchRequest({"data", "key", ranges}), trace_id,
                  profiled);
  size_t consumed = 0;
  auto reply = dispatcher.HandleFrameBytes(request, &consumed);
  EXPECT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(consumed, request.size());
  return reply.ok() ? *reply : std::string();
}

TEST(ReplyGoldenTest, DispatcherFrameEqualsEncodingTheCopiedRows) {
  const std::vector<std::vector<ModularInterval>> batches = {
      {ModularInterval(5, 10, 60)},
      {ModularInterval(55, 10, 60), ModularInterval(20, 3, 60)},  // wraps
      {ModularInterval(0, 60, 60)},
      {},  // an empty result
  };
  for (const auto& ranges : batches) {
    for (const bool traced : {false, true}) {
      for (const bool profiled : {false, true}) {
        engine::DbServer server = MakeServer();
        const uint64_t trace_id = traced ? 0xABCDEF0123ull : 0;
        const std::string frame =
            DispatchRangeBatch(&server, ranges, trace_id, profiled);
        auto rows = server.ExecuteRangeBatchWithIds("data", "key", ranges);
        ASSERT_TRUE(rows.ok());
        // A profile carries the request's own counters: take the one the
        // dispatcher sent, after checking the frame around it.
        auto view = ParseFrame(frame, nullptr);
        ASSERT_TRUE(view.ok()) << view.status();
        ASSERT_EQ(view->has_profile, profiled);
        const std::string expected = EncodeFrame(
            MessageType::kRangeBatchReply, EncodeRangeBatchReply(*rows),
            trace_id, profiled, view->profile);
        EXPECT_EQ(frame, expected)
            << ranges.size() << " ranges, traced " << traced << ", profiled "
            << profiled;
      }
    }
  }
}

TEST(ReplyGoldenTest, ReusedReplyBufferAfterAGrowingStringUpdate) {
  // A growing string moves every later row in the table's arena; the reply,
  // written into the buffer the previous reply left, still equals encoding
  // the decoded rows.
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  const std::vector<ModularInterval> ranges = {ModularInterval(0, 60, 60)};
  const std::string request =
      EncodeFrame(MessageType::kRangeBatchRequest,
                  EncodeRangeBatchRequest({"data", "key", ranges}));
  auto table = server.catalog()->GetTable("data");
  ASSERT_TRUE(table.ok());
  std::string reply;
  for (const std::string& note :
       {std::string(500, 'g'), std::string(), std::string("odd")}) {
    ASSERT_TRUE((*table)->UpdateValue(7, 3, note).ok());
    size_t consumed = 0;
    auto frame = dispatcher.HandleFrameBytes(request, &consumed,
                                             std::move(reply));
    ASSERT_TRUE(frame.ok()) << frame.status();
    reply = std::move(frame).value();
    auto rows = server.ExecuteRangeBatchWithIds("data", "key", ranges);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 60u);
    EXPECT_EQ((*rows)[7].second[3], Value(note));
    EXPECT_EQ(reply, EncodeFrame(MessageType::kRangeBatchReply,
                                 EncodeRangeBatchReply(*rows)))
        << note.size() << "-byte note";
  }
}

// --- Replies no honest server sends ---------------------------------------

constexpr uint64_t kDomain = 64;

/// The key every proxy below holds.
Result<ope::MopeScheme> ProxyScheme() {
  Rng rng(5);
  return ope::MopeScheme::Create(
      ope::OpeParams{kDomain, ope::SuggestRange(kDomain)},
      ope::MopeKey::Generate(kDomain, &rng));
}

/// A proxy over `connection` for table "t" keyed on int column "k":
/// passthrough queries, one piece per request, no retries.
Result<std::unique_ptr<proxy::Proxy>> MakeProxy(
    std::unique_ptr<proxy::ServerConnection> connection) {
  proxy::ProxyConfig config;
  config.table = "t";
  config.column = "k";
  config.domain = kDomain;
  config.k = 4;
  config.mode = proxy::QueryMode::kPassthrough;
  MOPE_ASSIGN_OR_RETURN(ope::MopeScheme scheme, ProxyScheme());
  return proxy::Proxy::Create(config, std::move(scheme), std::move(connection));
}

const Schema kIntKeySchema({Column{"k", ValueType::kInt}});

/// The two shapes: a string where the int key should be, and no column.
const net::RowsWithIds kStringKeyRow = {
    {7, Row{Value{std::string("not-an-int")}}}};
const net::RowsWithIds kZeroColumnRow = {{7, Row{}}};

/// Answers every range batch with fixed rows.
class FixedRowsConnection final : public proxy::ServerConnection {
 public:
  explicit FixedRowsConnection(net::RowsWithIds rows)
      : rows_(std::move(rows)) {}

  Result<net::RowsWithIds> ExecuteRangeBatch(
      const std::string&, const std::string&,
      const std::vector<ModularInterval>&) override {
    return rows_;
  }
  Result<Schema> GetSchema(const std::string&) override {
    return kIntKeySchema;
  }

 private:
  net::RowsWithIds rows_;
};

/// Through a connection that hands the proxy built rows (the default
/// FetchRangeBatch filter).
void ExpectCorruptionFromConnection(const net::RowsWithIds& rows) {
  auto proxy = MakeProxy(std::make_unique<FixedRowsConnection>(rows));
  ASSERT_TRUE(proxy.ok()) << proxy.status();
  auto response = (*proxy)->ExecuteRange({10, 13});
  EXPECT_TRUE(response.status().IsCorruption()) << response.status();
}

/// Through the wire: the peer answers the schema request honestly, then the
/// range batch with a frame encoding rows no table could hold.
void ExpectCorruptionFromReplyFrame(const net::RowsWithIds& rows) {
  const std::string stream =
      EncodeFrame(MessageType::kSchemaReply,
                  EncodeSchemaReply(kIntKeySchema)) +
      EncodeFrame(MessageType::kRangeBatchReply, EncodeRangeBatchReply(rows));
  auto proxy = MakeProxy(ConnectionServing(stream));
  ASSERT_TRUE(proxy.ok()) << proxy.status();
  auto response = (*proxy)->ExecuteRange({10, 13});
  EXPECT_TRUE(response.status().IsCorruption()) << response.status();
}

TEST(HostileReplyTest, StringKeyFromAConnectionIsCorruption) {
  ExpectCorruptionFromConnection(kStringKeyRow);
}

TEST(HostileReplyTest, ZeroColumnRowFromAConnectionIsCorruption) {
  ExpectCorruptionFromConnection(kZeroColumnRow);
}

TEST(HostileReplyTest, StringKeyInAReplyFrameIsCorruption) {
  ExpectCorruptionFromReplyFrame(kStringKeyRow);
}

TEST(HostileReplyTest, ZeroColumnRowInAReplyFrameIsCorruption) {
  ExpectCorruptionFromReplyFrame(kZeroColumnRow);
}

// --- Rows the proxy returns once --------------------------------------------

const Schema kKeyTagSchema({Column{"k", ValueType::kInt},
                            Column{"tag", ValueType::kInt}});

/// Answers the n-th range batch with the n-th entry of `batches`, then with
/// no rows.
class ScriptedBatchesConnection final : public proxy::ServerConnection {
 public:
  explicit ScriptedBatchesConnection(std::vector<net::RowsWithIds> batches)
      : batches_(std::move(batches)) {}

  Result<net::RowsWithIds> ExecuteRangeBatch(
      const std::string&, const std::string&,
      const std::vector<ModularInterval>&) override {
    if (calls_ == batches_.size()) return net::RowsWithIds();
    return batches_[calls_++];
  }
  Result<Schema> GetSchema(const std::string&) override {
    return kKeyTagSchema;
  }

 private:
  std::vector<net::RowsWithIds> batches_;
  size_t calls_ = 0;
};

/// One copy of a row a server sends: its id, plaintext key and a tag that
/// tells the copies of one id apart.
struct RowCopy {
  engine::RowId id;
  uint64_t key;
  int64_t tag;
};

/// Runs query [8, 15] (two pieces, so two requests) on a proxy whose server
/// answers request b with `batches[b]`, keys encrypted under the proxy's
/// key, first through a connection handing over built rows, then through
/// reply frames. Either way the proxy returns each id once: its first copy.
void ExpectEachIdOnceAsItsFirstCopy(
    const std::vector<std::vector<RowCopy>>& batches) {
  const query::RangeQuery q{8, 15};
  const size_t requests = query::Decompose(q, 4, kDomain).size();
  ASSERT_EQ(requests, 2u);
  ASSERT_LE(batches.size(), requests);
  auto scheme = ProxyScheme();
  ASSERT_TRUE(scheme.ok()) << scheme.status();
  std::vector<net::RowsWithIds> replies(requests);
  std::vector<Row> expected;
  std::set<engine::RowId> seen;
  for (size_t b = 0; b < batches.size(); ++b) {
    for (const RowCopy& copy : batches[b]) {
      auto cipher = scheme->Encrypt(copy.key);
      ASSERT_TRUE(cipher.ok()) << cipher.status();
      replies[b].emplace_back(
          copy.id, Row{static_cast<int64_t>(*cipher), copy.tag});
      if (seen.insert(copy.id).second) {
        expected.push_back(Row{static_cast<int64_t>(copy.key), copy.tag});
      }
    }
  }
  std::string stream = EncodeFrame(MessageType::kSchemaReply,
                                   EncodeSchemaReply(kKeyTagSchema));
  for (const net::RowsWithIds& reply : replies) {
    stream += EncodeFrame(MessageType::kRangeBatchReply,
                          EncodeRangeBatchReply(reply));
  }
  for (const bool via_wire : {false, true}) {
    std::unique_ptr<proxy::ServerConnection> connection;
    if (via_wire) {
      connection = ConnectionServing(stream);
    } else {
      connection = std::make_unique<ScriptedBatchesConnection>(replies);
    }
    auto proxy = MakeProxy(std::move(connection));
    ASSERT_TRUE(proxy.ok()) << proxy.status();
    auto response = (*proxy)->ExecuteRange(q);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->rows, expected) << (via_wire ? "frames" : "rows");
  }
}

TEST(HostileReplyTest, IdRepeatedWithinAReplyIsReturnedOnce) {
  ExpectEachIdOnceAsItsFirstCopy({{{1, 9, 100}, {2, 10, 200}, {1, 9, 300}}});
}

TEST(HostileReplyTest, IdRepeatedAcrossTwoBatchesIsReturnedOnce) {
  ExpectEachIdOnceAsItsFirstCopy(
      {{{1, 9, 100}, {2, 10, 200}}, {{2, 10, 300}, {3, 12, 400}}});
}

TEST(HostileReplyTest, LargestIdArrivingTwiceIsReturnedOnce) {
  // 2^64-1 is the dedup set's free-slot marker; 0 and 2^64-2 sit beside it.
  constexpr engine::RowId kMax = ~engine::RowId{0};
  ExpectEachIdOnceAsItsFirstCopy(
      {{{kMax, 9, 100}, {0, 10, 200}, {kMax - 1, 11, 300}},
       {{kMax, 9, 400}, {0, 10, 500}, {kMax - 1, 11, 600}}});
}

}  // namespace
}  // namespace mope::net
