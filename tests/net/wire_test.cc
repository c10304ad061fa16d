#include "net/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/crc32.h"
#include "engine/codec.h"
#include "engine/server.h"
#include "net/dispatcher.h"
#include "net/transport.h"

namespace mope::net {
namespace {

using engine::Column;
using engine::Schema;
using engine::Value;
using engine::ValueType;

// --- Framing --------------------------------------------------------------

TEST(FrameTest, RoundTrip) {
  const std::string bytes =
      EncodeFrame(MessageType::kSchemaRequest, "payload!");
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 8);
  size_t consumed = 0;
  auto frame = DecodeFrame(bytes, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame->type, static_cast<uint8_t>(MessageType::kSchemaRequest));
  EXPECT_EQ(frame->payload, "payload!");
}

TEST(FrameTest, EmptyPayloadRoundTrip) {
  const std::string bytes = EncodeFrame(MessageType::kCountBatchRequest, "");
  size_t consumed = 0;
  auto frame = DecodeFrame(bytes, &consumed);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->payload, "");
}

TEST(FrameTest, TruncatedHeaderIsUnavailable) {
  // An incomplete prefix is not an error — more bytes may be in flight.
  const std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "x");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    size_t consumed = 0;
    auto frame = DecodeFrame(std::string_view(bytes).substr(0, cut), &consumed);
    ASSERT_FALSE(frame.ok()) << "cut=" << cut;
    EXPECT_TRUE(frame.status().IsUnavailable()) << "cut=" << cut;
  }
}

TEST(FrameTest, BadMagicIsCorruption) {
  std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "x");
  bytes[0] ^= 0x01;
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(bytes, &consumed).status().IsCorruption());
}

TEST(FrameTest, BadVersionIsCorruption) {
  std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "x");
  bytes[4] = static_cast<char>(kWireVersion + 1);
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(bytes, &consumed).status().IsCorruption());
}

TEST(FrameTest, NonzeroReservedIsCorruption) {
  std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "x");
  bytes[6] = 0x01;
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(bytes, &consumed).status().IsCorruption());
}

TEST(FrameTest, OversizedLengthIsCorruption) {
  std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "x");
  // Rewrite the length field to claim a payload beyond kMaxPayloadBytes.
  std::string length;
  engine::PutU32(&length, kMaxPayloadBytes + 1);
  bytes.replace(8, 4, length);
  size_t consumed = 0;
  auto frame = DecodeFrame(bytes, &consumed);
  ASSERT_FALSE(frame.ok());
  // Must be Corruption (reject), not Unavailable (wait for 64 MiB that will
  // never come) — the distinction is what stops a memory-exhaustion tease.
  EXPECT_TRUE(frame.status().IsCorruption());
}

TEST(FrameTest, CrcMismatchIsCorruption) {
  std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "payload");
  bytes[kFrameHeaderBytes] ^= 0x40;  // flip a payload bit
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(bytes, &consumed).status().IsCorruption());
}

TEST(FrameTest, Crc32KnownAnswer) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(FrameTest, ReadFrameFromTransport) {
  StringTransport transport(EncodeFrame(MessageType::kSchemaReply, "abc"));
  auto frame = ReadFrame(&transport);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->payload, "abc");
}

TEST(FrameTest, ReadFrameEofAtBoundaryIsUnavailable) {
  StringTransport transport("");
  auto frame = ReadFrame(&transport);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsUnavailable());
}

TEST(FrameTest, ReadFrameEofMidFrameIsUnavailable) {
  const std::string bytes = EncodeFrame(MessageType::kSchemaReply, "abc");
  StringTransport transport(bytes.substr(0, bytes.size() - 1));
  auto frame = ReadFrame(&transport);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsUnavailable());
}

TEST(FrameTest, WriteFrameRejectsOversizedPayloadAsStatus) {
  // An over-limit payload must surface as InvalidArgument with nothing on
  // the wire — not trip EncodeFrame's MOPE_CHECK and abort the process.
  StringTransport transport("");
  std::string huge(static_cast<size_t>(kMaxPayloadBytes) + 1, 'x');
  const Status status =
      WriteFrame(&transport, MessageType::kRangeBatchRequest, std::move(huge));
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_TRUE(transport.output().empty());
}

TEST(FrameTest, WriteFrameAppendsDecodableBytes) {
  StringTransport transport("");
  ASSERT_TRUE(WriteFrame(&transport, MessageType::kCountBatchReply,
                         EncodeCountBatchReply(9)).ok());
  size_t consumed = 0;
  auto frame = DecodeFrame(transport.output(), &consumed);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(DecodeCountBatchReply(frame->payload).value(), 9u);
}

// --- Message bodies -------------------------------------------------------

TEST(MessageTest, RangeBatchRequestRoundTrip) {
  RangeBatchRequest request;
  request.table = "lineitem";
  request.column = "l_shipdate";
  request.ranges = {ModularInterval(10, 5, 100),
                    ModularInterval(95, 10, 100),  // wraps
                    ModularInterval(0, 100, 100)};
  auto decoded = DecodeRangeBatchRequest(EncodeRangeBatchRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->table, "lineitem");
  EXPECT_EQ(decoded->column, "l_shipdate");
  ASSERT_EQ(decoded->ranges.size(), 3u);
  EXPECT_EQ(decoded->ranges[1].start(), 95u);
  EXPECT_EQ(decoded->ranges[1].length(), 10u);
  EXPECT_EQ(decoded->ranges[1].domain(), 100u);
}

TEST(MessageTest, InvalidIntervalOnWireIsCorruptionNotAbort) {
  // Hand-craft a request whose interval would trip ModularInterval's
  // MOPE_CHECK preconditions; the decoder must reject it first.
  struct Bad { uint64_t start, length, domain; };
  for (const Bad& bad : {Bad{5, 1, 0},     // zero domain
                         Bad{100, 1, 100}, // start >= domain
                         Bad{0, 0, 100},   // zero length
                         Bad{0, 101, 100}}) {  // length > domain
    std::string payload;
    engine::PutString(&payload, "t");
    engine::PutString(&payload, "c");
    engine::PutU32(&payload, 1);
    engine::PutU64(&payload, bad.start);
    engine::PutU64(&payload, bad.length);
    engine::PutU64(&payload, bad.domain);
    auto decoded = DecodeRangeBatchRequest(payload);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsCorruption());
  }
}

TEST(MessageTest, RangeBatchReplyRoundTrip) {
  RowsWithIds rows;
  rows.emplace_back(7, engine::Row{Value{int64_t{42}}, Value{1.5},
                                   Value{std::string("tag")}});
  rows.emplace_back(9, engine::Row{Value{int64_t{-1}}, Value{0.0},
                                   Value{std::string()}});
  auto decoded = DecodeRangeBatchReply(EncodeRangeBatchReply(rows));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].first, 7u);
  EXPECT_EQ(std::get<int64_t>((*decoded)[0].second[0]), 42);
  EXPECT_EQ((*decoded)[1].first, 9u);
  EXPECT_EQ(std::get<std::string>((*decoded)[1].second[2]), "");
}

TEST(MessageTest, ImplausibleRowCountIsCorruption) {
  // A reply claiming 2^50 rows in a 20-byte payload must be rejected before
  // any allocation happens.
  std::string payload;
  engine::PutU64(&payload, 1ull << 50);
  payload += "somebytes";
  EXPECT_TRUE(DecodeRangeBatchReply(payload).status().IsCorruption());
}

TEST(MessageTest, SchemaRoundTrip) {
  const Schema schema({Column{"key", ValueType::kInt},
                       Column{"price", ValueType::kDouble},
                       Column{"tag", ValueType::kString}});
  auto decoded = DecodeSchemaReply(EncodeSchemaReply(schema));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->num_columns(), 3u);
  EXPECT_EQ(decoded->column(0).name, "key");
  EXPECT_EQ(decoded->column(1).type, ValueType::kDouble);
  EXPECT_EQ(decoded->column(2).name, "tag");
}

TEST(MessageTest, SchemaReplyRepeatingAColumnNameIsCorruptionNotAbort) {
  // Schema's constructor aborts on a repeated name, so a broken or hostile
  // server must cost the proxy a Corruption at decode time instead.
  std::string payload;
  engine::PutU32(&payload, 2);
  for (int i = 0; i < 2; ++i) {
    engine::PutString(&payload, "key");
    payload.push_back(static_cast<char>(ValueType::kInt));
  }
  EXPECT_TRUE(DecodeSchemaReply(payload).status().IsCorruption());
}

TEST(MessageTest, StatusReplyRoundTrip) {
  const Status original = Status::NotFound("no table 'x'");
  Status decoded;
  ASSERT_TRUE(DecodeStatusReply(EncodeStatusReply(original), &decoded).ok());
  EXPECT_TRUE(decoded.IsNotFound());
  EXPECT_EQ(decoded.ToString(), original.ToString());
}

TEST(MessageTest, StatusReplyCarryingOkIsCorruption) {
  std::string payload;
  payload.push_back(0);  // StatusCode::kOk — meaningless as an error reply
  engine::PutString(&payload, "");
  Status decoded;
  EXPECT_TRUE(DecodeStatusReply(payload, &decoded).IsCorruption());
}

TEST(MessageTest, TrailingGarbageIsCorruption) {
  std::string payload = EncodeCountBatchReply(3);
  payload.push_back('!');
  EXPECT_TRUE(DecodeCountBatchReply(payload).status().IsCorruption());
}

// --- Dispatcher -----------------------------------------------------------

engine::DbServer MakeServer() {
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "data", Schema({Column{"key", ValueType::kInt},
                      Column{"tag", ValueType::kString}}));
  EXPECT_TRUE(table.ok());
  for (int64_t k = 0; k < 100; ++k) {
    EXPECT_TRUE((*table)->Insert({k, std::string("row")}).ok());
  }
  EXPECT_TRUE((*table)->CreateIndex("key").ok());
  return server;
}

Result<Frame> Dispatch(WireDispatcher* dispatcher, MessageType type,
                       std::string payload) {
  const std::string request = EncodeFrame(type, std::move(payload));
  size_t consumed = 0;
  MOPE_ASSIGN_OR_RETURN(std::string reply,
                        dispatcher->HandleFrameBytes(request, &consumed));
  EXPECT_EQ(consumed, request.size());
  return DecodeFrame(reply, &consumed);
}

TEST(DispatcherTest, RangeBatchMatchesDirectCall) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  RangeBatchRequest request{"data", "key", {ModularInterval(10, 5, 100)}};
  auto reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                        EncodeRangeBatchRequest(request));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kRangeBatchReply));
  auto rows = DecodeRangeBatchReply(reply->payload);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(dispatcher.frames_served(), 1u);
}

TEST(DispatcherTest, CountBatch) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  RangeBatchRequest request{"data", "key", {ModularInterval(95, 10, 100)}};
  auto reply = Dispatch(&dispatcher, MessageType::kCountBatchRequest,
                        EncodeRangeBatchRequest(request));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kCountBatchReply));
  EXPECT_EQ(DecodeCountBatchReply(reply->payload).value(), 10u);
}

TEST(DispatcherTest, ApplicationErrorBecomesStatusReply) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  auto reply = Dispatch(&dispatcher, MessageType::kSchemaRequest,
                        EncodeSchemaRequest("no_such_table"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kStatusReply));
  Status carried;
  ASSERT_TRUE(DecodeStatusReply(reply->payload, &carried).ok());
  EXPECT_TRUE(carried.IsNotFound());
}

TEST(DispatcherTest, UnknownMessageTypeBecomesStatusReply) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  auto reply = Dispatch(&dispatcher, static_cast<MessageType>(200), "??");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kStatusReply));
  Status carried;
  ASSERT_TRUE(DecodeStatusReply(reply->payload, &carried).ok());
  EXPECT_TRUE(carried.IsInvalidArgument());
}

TEST(DispatcherTest, MalformedPayloadClosesSession) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  // Framing is intact but the payload is not a RangeBatchRequest: the stream
  // can no longer be trusted, so the dispatcher errors instead of replying.
  auto reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest, "junk");
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsCorruption());
}

TEST(DispatcherTest, OversizedReplyBecomesStatusReplyNotAbort) {
  // A well-formed request whose *result* overflows the frame cap is a
  // legitimate query on a big table; it must cost an error answer, not the
  // daemon. A tiny cap stands in for the real 64 MiB one.
  engine::DbServer server = MakeServer();
  DispatcherOptions options;
  options.max_reply_payload_bytes = 64;
  WireDispatcher dispatcher(&server, options);
  RangeBatchRequest request{"data", "key", {ModularInterval(0, 100, 100)}};
  auto reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                        EncodeRangeBatchRequest(request));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kStatusReply));
  Status carried;
  ASSERT_TRUE(DecodeStatusReply(reply->payload, &carried).ok());
  EXPECT_TRUE(carried.IsInvalidArgument()) << carried.ToString();

  // The session stays usable: a narrower query on the same dispatcher works.
  RangeBatchRequest narrow{"data", "key", {ModularInterval(0, 1, 100)}};
  auto ok_reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                           EncodeRangeBatchRequest(narrow));
  ASSERT_TRUE(ok_reply.ok());
  EXPECT_EQ(ok_reply->type,
            static_cast<uint8_t>(MessageType::kRangeBatchReply));
}

TEST(DispatcherTest, ByteAccountingReachesServerStats) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  RangeBatchRequest request{"data", "key", {ModularInterval(0, 50, 100)}};
  ASSERT_TRUE(Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                       EncodeRangeBatchRequest(request)).ok());
  const engine::ServerStats stats = server.stats();
  EXPECT_GT(stats.bytes_received, kFrameHeaderBytes);
  // 50 rows went back; the reply dwarfs the request.
  EXPECT_GT(stats.bytes_sent, stats.bytes_received);
}

}  // namespace
}  // namespace mope::net
