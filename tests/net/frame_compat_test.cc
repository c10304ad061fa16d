/// Wire-format compatibility for the version-2 extensions (trace id,
/// profile).
///
/// The contract under test: frames using no extension are emitted as
/// *byte-identical* version-1 frames (an old peer keeps working until
/// tracing or profiling is actually used), a version-2 frame carries exactly
/// the extensions selected by the flags byte, and anything this build does
/// not understand — unknown flag bits, flags in a version-1 frame — is
/// rejected as Corruption instead of being silently mis-framed.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/crc32.h"
#include "engine/codec.h"
#include "engine/server.h"
#include "net/dispatcher.h"
#include "net/wire.h"
#include "obs/clock.h"

namespace mope::net {
namespace {

/// Hand-builds a frame exactly as a version-1-only peer would: 16-byte
/// header, no extensions. Kept independent of EncodeFrame on purpose — it is
/// the "old build" in these tests.
std::string BuildV1Frame(MessageType type, const std::string& payload,
                         uint8_t flags = 0, uint8_t version = 1) {
  std::string frame;
  engine::PutU32(&frame, kWireMagic);
  frame.push_back(static_cast<char>(version));
  frame.push_back(static_cast<char>(type));
  frame.push_back(static_cast<char>(flags));
  frame.push_back('\0');  // reserved
  engine::PutU32(&frame, static_cast<uint32_t>(payload.size()));
  engine::PutU32(&frame, Crc32(payload));
  frame += payload;
  return frame;
}

TEST(FrameCompatTest, TracelessFrameIsByteIdenticalToVersion1) {
  const std::string payload = "payload bytes";
  const std::string encoded =
      EncodeFrame(MessageType::kRangeBatchRequest, payload);
  EXPECT_EQ(encoded,
            BuildV1Frame(MessageType::kRangeBatchRequest, payload));
  EXPECT_EQ(static_cast<uint8_t>(encoded[4]), 1u);  // version byte
  EXPECT_EQ(static_cast<uint8_t>(encoded[6]), 0u);  // flags byte
}

TEST(FrameCompatTest, TracedFrameIsVersion2WithTraceIdExtension) {
  const std::string payload = "payload bytes";
  const uint64_t trace_id = 0x1122334455667788ull;
  const std::string encoded =
      EncodeFrame(MessageType::kRangeBatchRequest, payload, trace_id);
  ASSERT_EQ(encoded.size(),
            kFrameHeaderBytes + kTraceIdBytes + payload.size());
  EXPECT_EQ(static_cast<uint8_t>(encoded[4]), kWireVersion);
  EXPECT_EQ(static_cast<uint8_t>(encoded[6]), kFrameFlagHasTraceId);
  // The trace id sits between header and payload, little-endian, and is
  // excluded from the length field and the CRC.
  std::string expected_id;
  engine::PutU64(&expected_id, trace_id);
  EXPECT_EQ(encoded.substr(kFrameHeaderBytes, kTraceIdBytes), expected_id);

  size_t consumed = 0;
  auto decoded = DecodeFrame(encoded, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(consumed, encoded.size());
  EXPECT_EQ(decoded->trace_id, trace_id);
  EXPECT_EQ(decoded->payload, payload);
}

TEST(FrameCompatTest, HandBuiltV1FrameDecodes) {
  const std::string frame = BuildV1Frame(MessageType::kSchemaRequest, "t");
  size_t consumed = 0;
  auto decoded = DecodeFrame(frame, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded->type,
            static_cast<uint8_t>(MessageType::kSchemaRequest));
  EXPECT_EQ(decoded->trace_id, 0u);  // no extension = no trace
  EXPECT_EQ(decoded->payload, "t");
}

TEST(FrameCompatTest, UnknownFlagBitIsCorruption) {
  // A future extension bit this build does not know how to frame: the
  // payload boundary would be wrong, so the only safe answer is Corruption.
  const std::string frame =
      BuildV1Frame(MessageType::kStatsRequest, "", /*flags=*/0x04,
                   /*version=*/kWireVersion);
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(frame, &consumed).status().IsCorruption());
}

TEST(FrameCompatTest, FlagsInVersion1FrameAreCorruption) {
  // Version 1 predates the flags byte; a nonzero value there means the peer
  // is broken or hostile, not "version 1 with extensions".
  const std::string frame = BuildV1Frame(
      MessageType::kStatsRequest, "", /*flags=*/kFrameFlagHasTraceId);
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(frame, &consumed).status().IsCorruption());
}

TEST(FrameCompatTest, TruncatedTraceIdIsUnavailableNotMisframed) {
  const std::string encoded =
      EncodeFrame(MessageType::kStatsRequest, "", /*trace_id=*/42);
  // Cut inside the trace-id extension: more bytes may still arrive.
  size_t consumed = 0;
  const auto status =
      DecodeFrame(std::string_view(encoded).substr(
                      0, kFrameHeaderBytes + kTraceIdBytes - 1),
                  &consumed)
          .status();
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
}

TEST(StatsWireTest, StatsReplyRoundTrip) {
  const StatsReply stats = {
      {"engine.batches_received", 12},
      {"net.server.frames_served", 34},
      {"server.dispatch_ns.count", 34},
  };
  auto decoded = DecodeStatsReply(EncodeStatsReply(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, stats);

  auto empty = DecodeStatsReply(EncodeStatsReply({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(StatsWireTest, TruncatedStatsReplyIsCorruption) {
  const std::string encoded =
      EncodeStatsReply({{"a", 1}, {"bb", 2}, {"ccc", 3}});
  for (size_t cut = 1; cut < encoded.size(); ++cut) {
    EXPECT_TRUE(DecodeStatsReply(std::string_view(encoded).substr(0, cut))
                    .status()
                    .IsCorruption())
        << "cut at " << cut;
  }
}

TEST(StatsWireTest, ImplausibleStatsCountIsCorruption) {
  // A count far beyond what the payload could hold must be rejected before
  // any allocation sized by it.
  std::string payload;
  engine::PutU32(&payload, ~uint32_t{0});
  EXPECT_TRUE(DecodeStatsReply(payload).status().IsCorruption());
}

TEST(DispatcherCompatTest, HandBuiltV1FrameDispatches) {
  // The "old peer" end-to-end: a frame built without any knowledge of
  // version 2 goes through the dispatcher and gets a well-formed answer.
  engine::DbServer server;
  WireDispatcher dispatcher(&server);
  const std::string request = BuildV1Frame(MessageType::kStatsRequest, "");
  size_t consumed = 0;
  auto reply = dispatcher.HandleFrameBytes(request, &consumed);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(consumed, request.size());

  size_t reply_consumed = 0;
  auto frame = DecodeFrame(*reply, &reply_consumed);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, static_cast<uint8_t>(MessageType::kStatsReply));
  EXPECT_EQ(frame->trace_id, 0u);  // traceless in, traceless out
  auto stats = DecodeStatsReply(frame->payload);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->empty());
}

TEST(DispatcherCompatTest, TraceIdIsEchoedOnTheReply) {
  engine::DbServer server;
  WireDispatcher dispatcher(&server);
  const uint64_t trace_id = 0xFEEDull;
  const std::string request =
      EncodeFrame(MessageType::kStatsRequest, "", trace_id);
  size_t consumed = 0;
  auto reply = dispatcher.HandleFrameBytes(request, &consumed);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  size_t reply_consumed = 0;
  auto frame = DecodeFrame(*reply, &reply_consumed);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->trace_id, trace_id);
  // ...including on error answers, which matter most for correlation.
  const std::string bad = EncodeFrame(
      MessageType::kSchemaRequest, EncodeSchemaRequest("nope"), trace_id);
  auto bad_reply = dispatcher.HandleFrameBytes(bad, &consumed);
  ASSERT_TRUE(bad_reply.ok());
  auto bad_frame = DecodeFrame(*bad_reply, &reply_consumed);
  ASSERT_TRUE(bad_frame.ok());
  EXPECT_EQ(bad_frame->type,
            static_cast<uint8_t>(MessageType::kStatusReply));
  EXPECT_EQ(bad_frame->trace_id, trace_id);
}

TEST(DispatcherCompatTest, StatsRequestWithPayloadClosesSession) {
  // kStatsRequest is defined as empty-bodied; a payload means the stream is
  // mis-framed, and framing violations are session-fatal by contract.
  engine::DbServer server;
  WireDispatcher dispatcher(&server);
  const std::string request =
      EncodeFrame(MessageType::kStatsRequest, "unexpected");
  size_t consumed = 0;
  EXPECT_TRUE(dispatcher.HandleFrameBytes(request, &consumed)
                  .status()
                  .IsCorruption());
}

TEST(DispatcherCompatTest, DispatchLatencyLandsInServerHistogram) {
  engine::DbServer server;
  // Auto-advance 50ns per read: each dispatch reads the clock twice, so
  // every observed latency is exactly 50ns.
  obs::ManualClock clock(0, 50);
  DispatcherOptions options;
  options.clock = &clock;
  WireDispatcher dispatcher(&server, options);
  size_t consumed = 0;
  for (int i = 0; i < 3; ++i) {
    auto reply = dispatcher.HandleFrameBytes(
        EncodeFrame(MessageType::kStatsRequest, ""), &consumed);
    ASSERT_TRUE(reply.ok());
  }
  obs::ExpHistogram* hist =
      server.metrics()->GetHistogram("server.dispatch_ns");
  EXPECT_EQ(hist->Count(), 3u);
  EXPECT_EQ(hist->Sum(), 150u);
  EXPECT_EQ(dispatcher.frames_served(), 3u);
}

}  // namespace
}  // namespace mope::net
