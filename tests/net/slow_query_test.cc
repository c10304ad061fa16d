/// Slow-query accounting end to end at the dispatcher level: a request over
/// the threshold must produce one structured `event=slow_query` log line
/// carrying the request's wire trace id and a per-span breakdown, plus a
/// Chrome-trace export (written through the Env seam) whose trace id matches
/// and whose spans include the storage work the request triggered.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/codec.h"
#include "engine/server.h"
#include "net/dispatcher.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/log.h"
#include "storage/env.h"

namespace mope::net {
namespace {

using engine::Column;
using engine::Schema;
using engine::Value;
using engine::ValueType;

struct CapturedLines {
  std::vector<std::string> lines;
  static void Sink(void* user_data, const std::string& line) {
    static_cast<CapturedLines*>(user_data)->lines.push_back(line);
  }
};

/// Redirects the process-default logger into a capture for the test's
/// lifetime (the dispatcher logs through Logger::Default()), restoring the
/// stderr sink on destruction.
class ScopedDefaultSink {
 public:
  explicit ScopedDefaultSink(CapturedLines* capture) {
    obs::Logger::Default()->SetSink(&CapturedLines::Sink, capture);
  }
  ~ScopedDefaultSink() { obs::Logger::Default()->SetSink(nullptr, nullptr); }
};

const std::string* FindEvent(const std::vector<std::string>& lines,
                             const std::string& needle) {
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) return &line;
  }
  return nullptr;
}

TEST(SlowQueryTest, ThresholdedRequestLogsBreakdownAndExportsTrace) {
  storage::InMemEnv env;
  engine::DbServer server;
  engine::DurableCatalog::Options storage_options;
  storage_options.env = &env;
  storage_options.wal_sync_every = 0;  // sync only at checkpoint
  ASSERT_TRUE(server.OpenStorage("/db", storage_options).ok());

  Schema schema({Column{"key", ValueType::kInt},
                 Column{"payload", ValueType::kString}});
  auto table = server.catalog()->CreateTable("data", schema);
  ASSERT_TRUE(table.ok());
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE((*table)->Insert({k, std::string("row")}).ok());
  }
  ASSERT_TRUE((*table)->CreateIndex("key").ok());

  obs::ManualClock clock(0, /*auto_advance_ns=*/1000000);  // 1ms per read
  DispatcherOptions options;
  options.clock = &clock;
  options.slow_query_threshold_ns = 1;  // everything is slow
  options.slow_query_trace_path = "/slow_query_trace.json";
  options.trace_env = &env;
  options.checkpoint_every = 1;  // storage work inside the dispatch section
  WireDispatcher dispatcher(&server, options);

  CapturedLines captured;
  ScopedDefaultSink scoped_sink(&captured);

  const uint64_t wire_trace_id = 31337;
  RangeBatchRequest request{"data", "key", {ModularInterval(10, 5, 100)}};
  const std::string bytes =
      EncodeFrame(MessageType::kRangeBatchRequest,
                  EncodeRangeBatchRequest(request), wire_trace_id);
  size_t consumed = 0;
  auto reply = dispatcher.HandleFrameBytes(bytes, &consumed);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  // The reply echoes the wire trace id.
  size_t reply_consumed = 0;
  auto reply_frame = DecodeFrame(*reply, &reply_consumed);
  ASSERT_TRUE(reply_frame.ok());
  EXPECT_EQ(reply_frame->trace_id, wire_trace_id);

  // One slow-query line, carrying the same trace id and a span breakdown
  // that includes the dispatch critical section and the checkpoint's
  // storage work.
  const std::string* line = FindEvent(captured.lines, "event=slow_query");
  ASSERT_NE(line, nullptr);
  EXPECT_NE(line->find("trace=31337"), std::string::npos) << *line;
  EXPECT_NE(line->find("span_ns.server.handle="), std::string::npos) << *line;
  EXPECT_NE(line->find("span_ns.server.checkpoint="), std::string::npos)
      << *line;
  EXPECT_NE(line->find("span_ns.storage.wal.sync="), std::string::npos)
      << *line;
  EXPECT_NE(line->find("threshold_ns=1"), std::string::npos) << *line;
  EXPECT_EQ(server.metrics()->GetCounter("server.slow_queries")->Value(), 1);

  // The Chrome export landed atomically in the Env, with the same trace id
  // and the WAL/checkpoint spans visible.
  auto exported = env.ReadFile("/slow_query_trace.json");
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  EXPECT_NE(exported->find("\"trace_id\":\"31337\""), std::string::npos);
  EXPECT_NE(exported->find("\"name\":\"server.handle\""), std::string::npos);
  EXPECT_NE(exported->find("\"name\":\"server.checkpoint\""),
            std::string::npos);
  EXPECT_NE(exported->find("\"name\":\"storage.wal.sync\""),
            std::string::npos);
  EXPECT_NE(exported->find("\"name\":\"storage.checkpoint\""),
            std::string::npos);
}

TEST(SlowQueryTest, FastPathStaysSilentWhenThresholdDisabled) {
  engine::DbServer server;
  Schema schema({Column{"key", ValueType::kInt}});
  auto table = server.catalog()->CreateTable("data", schema);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert({int64_t{1}}).ok());
  ASSERT_TRUE((*table)->CreateIndex("key").ok());

  obs::ManualClock clock(0, 1000000);
  DispatcherOptions options;
  options.clock = &clock;  // threshold stays 0: fast path
  WireDispatcher dispatcher(&server, options);

  CapturedLines captured;
  ScopedDefaultSink scoped_sink(&captured);

  RangeBatchRequest request{"data", "key", {ModularInterval(0, 2, 100)}};
  const std::string bytes = EncodeFrame(
      MessageType::kRangeBatchRequest, EncodeRangeBatchRequest(request), 7);
  size_t consumed = 0;
  ASSERT_TRUE(dispatcher.HandleFrameBytes(bytes, &consumed).ok());
  EXPECT_EQ(FindEvent(captured.lines, "event=slow_query"), nullptr);
  EXPECT_EQ(server.metrics()->GetCounter("server.slow_queries")->Value(), 0);
}

TEST(SlowQueryTest, UnderThresholdRequestDoesNotLog) {
  engine::DbServer server;
  Schema schema({Column{"key", ValueType::kInt}});
  auto table = server.catalog()->CreateTable("data", schema);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert({int64_t{1}}).ok());
  ASSERT_TRUE((*table)->CreateIndex("key").ok());

  obs::ManualClock clock(0, 1000);  // 1us per read: well under threshold
  DispatcherOptions options;
  options.clock = &clock;
  options.slow_query_threshold_ns = 1000000000;  // 1s
  WireDispatcher dispatcher(&server, options);

  CapturedLines captured;
  ScopedDefaultSink scoped_sink(&captured);

  RangeBatchRequest request{"data", "key", {ModularInterval(0, 2, 100)}};
  const std::string bytes = EncodeFrame(
      MessageType::kRangeBatchRequest, EncodeRangeBatchRequest(request), 9);
  size_t consumed = 0;
  ASSERT_TRUE(dispatcher.HandleFrameBytes(bytes, &consumed).ok());
  EXPECT_EQ(FindEvent(captured.lines, "event=slow_query"), nullptr);
  EXPECT_EQ(server.metrics()->GetCounter("server.slow_queries")->Value(), 0);
}

}  // namespace
}  // namespace mope::net
