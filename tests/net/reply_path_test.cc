/// The range-batch reply path: the dispatcher writes rows straight from
/// table storage into the reply frame, and the client's decoder checks every
/// reply byte but builds only the rows the proxy keeps.
///
/// The contracts under test: the dispatcher's frame is byte-identical to
/// encoding ExecuteRangeBatchWithIds' rows; the filtered decoder returns
/// exactly a full decode followed by the proxy's filter; no malformed reply
/// byte, in a kept row or a dropped one, ever aborts the client or yields
/// rows that differ from what the server sent; and a reply row without an
/// int key column, which no honest server produces, is Corruption at the
/// proxy, never a crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
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

namespace mope::net {
namespace {

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
void ExpectCorruptionOrReference(const std::string& stream,
                                 const std::string& what) {
  const net::RowsWithIds reference = ReferenceRows();
  const std::vector<ModularInterval> ranges = {ModularInterval(0, 10, 10)};
  auto full = ConnectionServing(stream)->ExecuteRangeBatch("t", "k", ranges);
  if (full.ok()) {
    EXPECT_EQ(*full, reference) << what;
  } else {
    EXPECT_TRUE(full.status().IsCorruption() ||
                full.status().IsUnavailable())
        << what << ": " << full.status();
  }
  net::RowsWithIds kept;
  auto shipped = ConnectionServing(stream)->FetchRangeBatch(
      "t", "k", ranges, kReferenceFilter.key_column, kReferenceFilter.keep,
      &kept);
  if (shipped.ok()) {
    EXPECT_EQ(*shipped, reference.size()) << what;
    EXPECT_EQ(kept, FilterRows(reference, kReferenceFilter)) << what;
  } else {
    EXPECT_TRUE(shipped.status().IsCorruption() ||
                shipped.status().IsUnavailable())
        << what << ": " << shipped.status();
  }
}

TEST(ReplyDecoderTest, EveryFlippedOrCutFrameByteIsAnErrorOrTheExactRows) {
  const std::string frame = EncodeFrame(MessageType::kRangeBatchReply,
                                        EncodeRangeBatchReply(ReferenceRows()));
  ExpectCorruptionOrReference(frame, "intact frame");
  for (size_t i = 0; i < frame.size(); ++i) {
    for (const char mask : {'\x01', '\xFF'}) {
      std::string mutated = frame;
      mutated[i] ^= mask;
      ExpectCorruptionOrReference(
          mutated, "byte " + std::to_string(i) + " ^ " +
                       std::to_string(static_cast<uint8_t>(mask)));
    }
  }
  for (size_t len = 0; len < frame.size(); ++len) {
    ExpectCorruptionOrReference(frame.substr(0, len),
                                "cut at " + std::to_string(len));
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
  auto raw = ReadFrameBytes(&transport);
  EXPECT_TRUE(raw.status().IsUnavailable()) << raw.status();
  EXPECT_LE(transport.largest_read(), size_t{1} << 20);
}

/// The frame's CRC stops every payload mutation above before the decoder
/// sees it. Here the decoder gets the mutated payloads themselves: each is
/// Corruption, or decodes — and then the filtered decode still equals the
/// full decode followed by the filter.
TEST(ReplyDecoderTest, EveryFlippedOrCutPayloadByteKeepsTheDecodersInStep) {
  const std::string payload = EncodeRangeBatchReply(ReferenceRows());
  std::vector<std::string> mutants;
  for (size_t i = 0; i < payload.size(); ++i) {
    for (const char mask : {'\x01', '\xFF'}) {
      mutants.push_back(payload);
      mutants.back()[i] ^= mask;
    }
  }
  for (size_t len = 0; len < payload.size(); ++len) {
    mutants.push_back(payload.substr(0, len));
  }
  for (size_t m = 0; m < mutants.size(); ++m) {
    auto full = DecodeRangeBatchReply(mutants[m]);
    net::RowsWithIds kept;
    auto shipped =
        DecodeRangeBatchReply(mutants[m], &kReferenceFilter, &kept);
    if (!full.ok()) {
      EXPECT_TRUE(full.status().IsCorruption()) << "mutant " << m;
      EXPECT_TRUE(shipped.status().IsCorruption()) << "mutant " << m;
      EXPECT_TRUE(kept.empty()) << "mutant " << m;
      continue;
    }
    // A decodable mutant can still hold a row the filter rejects (a key
    // column that is no longer an int): then only the filtered decode fails.
    bool keyed = true;
    for (const auto& [rid, row] : *full) {
      keyed = keyed && row.size() > kReferenceFilter.key_column &&
              std::holds_alternative<int64_t>(
                  row[kReferenceFilter.key_column]);
    }
    if (!keyed) {
      EXPECT_TRUE(shipped.status().IsCorruption()) << "mutant " << m;
      EXPECT_TRUE(kept.empty()) << "mutant " << m;
      continue;
    }
    ASSERT_TRUE(shipped.ok()) << "mutant " << m << ": " << shipped.status();
    EXPECT_EQ(*shipped, full->size()) << "mutant " << m;
    EXPECT_EQ(kept, FilterRows(*full, kReferenceFilter)) << "mutant " << m;
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

// --- Replies no honest server sends ---------------------------------------

constexpr uint64_t kDomain = 64;

/// A proxy over `connection` for table "t"(k int): passthrough queries, no
/// retries.
Result<std::unique_ptr<proxy::Proxy>> MakeProxy(
    std::unique_ptr<proxy::ServerConnection> connection) {
  Rng rng(5);
  proxy::ProxyConfig config;
  config.table = "t";
  config.column = "k";
  config.domain = kDomain;
  config.k = 4;
  config.mode = proxy::QueryMode::kPassthrough;
  return proxy::Proxy::Create(
      config, ope::MopeKey::Generate(kDomain, &rng),
      ope::OpeParams{kDomain, ope::SuggestRange(kDomain)},
      std::move(connection));
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

}  // namespace
}  // namespace mope::net
