#include "obs/log.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace mope::obs {
namespace {

/// Captures every emitted line, in order. Local Logger instances are used
/// throughout so tests never mutate the process-wide Logger::Default().
struct CapturedLines {
  std::vector<std::string> lines;

  static void Sink(void* user_data, const std::string& line) {
    static_cast<CapturedLines*>(user_data)->lines.push_back(line);
  }

  void Attach(Logger* logger) { logger->SetSink(&Sink, this); }
};

TEST(LogTest, TextFormatIsDeterministicWithManualClock) {
  Logger logger;
  CapturedLines captured;
  captured.Attach(&logger);
  ManualClock clock(12000);
  logger.SetClock(&clock);

  LogEvent(&logger, LogLevel::kInfo, "storage", "recovered")
      .Arg("tables", static_cast<uint64_t>(3))
      .Arg("crash_recovery", true);

  ASSERT_EQ(captured.lines.size(), 1u);
  EXPECT_EQ(captured.lines[0],
            "ts_ns=12000 level=info subsystem=storage event=recovered "
            "tables=3 crash_recovery=true");
}

TEST(LogTest, JsonFormatQuotesStringsAndLeavesNumbersBare) {
  Logger logger;
  CapturedLines captured;
  captured.Attach(&logger);
  ManualClock clock(5);
  logger.SetClock(&clock);
  logger.SetFormat(LogFormat::kJson);

  LogEvent(&logger, LogLevel::kWarn, "net", "rejected")
      .Arg("peer", "10.0.0.1")
      .Arg("pending", static_cast<uint64_t>(7));

  ASSERT_EQ(captured.lines.size(), 1u);
  EXPECT_EQ(captured.lines[0],
            "{\"ts_ns\":5,\"level\":\"warn\",\"subsystem\":\"net\","
            "\"event\":\"rejected\",\"peer\":\"10.0.0.1\",\"pending\":7}");
}

TEST(LogTest, TextValuesWithSpacesAreQuotedAndEscaped) {
  Logger logger;
  CapturedLines captured;
  captured.Attach(&logger);
  ManualClock clock(1);
  logger.SetClock(&clock);

  LogEvent(&logger, LogLevel::kError, "main", "failed")
      .Arg("status", "NotFound: no such \"table\"");

  ASSERT_EQ(captured.lines.size(), 1u);
  EXPECT_EQ(captured.lines[0],
            "ts_ns=1 level=error subsystem=main event=failed "
            "status=\"NotFound: no such \\\"table\\\"\"");
}

TEST(LogTest, SeverityFloorFiltersAndCostsNothing) {
  Logger logger;
  CapturedLines captured;
  captured.Attach(&logger);

  // Default floor is kInfo: debug events are inert at construction.
  LogEvent(&logger, LogLevel::kDebug, "net", "noise").Arg("k", "v");
  EXPECT_TRUE(captured.lines.empty());
  EXPECT_EQ(logger.emitted_total(), 0u);

  logger.SetMinLevel(LogLevel::kDebug);
  LogEvent(&logger, LogLevel::kDebug, "net", "now_visible");
  EXPECT_EQ(captured.lines.size(), 1u);

  logger.SetMinLevel(LogLevel::kError);
  LogEvent(&logger, LogLevel::kWarn, "net", "filtered_again");
  EXPECT_EQ(captured.lines.size(), 1u);
  EXPECT_EQ(logger.emitted_total(), 1u);
}

TEST(LogTest, SubsystemOverrideWinsOverGlobalFloor) {
  Logger logger;
  CapturedLines captured;
  captured.Attach(&logger);

  logger.SetSubsystemLevel("storage", LogLevel::kDebug);
  EXPECT_TRUE(logger.ShouldLog(LogLevel::kDebug, "storage"));
  EXPECT_FALSE(logger.ShouldLog(LogLevel::kDebug, "net"));

  LogEvent(&logger, LogLevel::kDebug, "storage", "verbose");
  LogEvent(&logger, LogLevel::kDebug, "net", "still_quiet");
  ASSERT_EQ(captured.lines.size(), 1u);
  EXPECT_NE(captured.lines[0].find("subsystem=storage"), std::string::npos);

  logger.ClearSubsystemLevels();
  EXPECT_FALSE(logger.ShouldLog(LogLevel::kDebug, "storage"));
}

TEST(LogTest, RateLimiterDropsBurstsAndRefillsFromClock) {
  Logger logger;
  CapturedLines captured;
  captured.Attach(&logger);
  ManualClock clock(1000000000);
  logger.SetClock(&clock);
  MetricsRegistry registry;
  logger.SetDropCounterRegistry(&registry);
  logger.SetRateLimit(/*rate_per_sec=*/1.0, /*burst=*/2.0);

  for (int i = 0; i < 5; ++i) {
    LogEvent(&logger, LogLevel::kInfo, "net", "spam").Arg("i", i);
  }
  // Burst of 2 admitted, 3 dropped.
  EXPECT_EQ(captured.lines.size(), 2u);
  EXPECT_EQ(logger.dropped_total(), 3u);
  EXPECT_EQ(registry.GetCounter("obs.log.dropped")->Value(), 3);

  // One second refills exactly one token.
  clock.AdvanceNanos(1000000000);
  LogEvent(&logger, LogLevel::kInfo, "net", "after_refill");
  LogEvent(&logger, LogLevel::kInfo, "net", "over_budget");
  EXPECT_EQ(captured.lines.size(), 3u);
  EXPECT_EQ(logger.dropped_total(), 4u);
}

TEST(LogTest, DropUnderActiveTraceCreditsItWithoutALock) {
  // The drop counter is bumped while the logger holds its sink mutex (rank
  // 75). Crediting the active trace must take no lock, or the lock-rank
  // checks of the sanitizer presets would abort here.
  Logger logger;
  CapturedLines captured;
  captured.Attach(&logger);
  ManualClock clock(1000000000);
  logger.SetClock(&clock);
  MetricsRegistry registry;
  logger.SetDropCounterRegistry(&registry);
  logger.SetRateLimit(/*rate_per_sec=*/1.0, /*burst=*/1.0);

  Trace trace("request", &clock);
  {
    const ScopedTraceActivation activation(&trace);
    for (int i = 0; i < 3; ++i) {
      LogEvent(&logger, LogLevel::kInfo, "net", "spam").Arg("i", i);
    }
  }
  EXPECT_EQ(captured.lines.size(), 1u);
  EXPECT_EQ(logger.dropped_total(), 2u);
  EXPECT_EQ(trace.counters().at("obs.log.dropped"), 2u);
}

TEST(LogTest, ActiveTraceIdIsAttached) {
  Logger logger;
  CapturedLines captured;
  captured.Attach(&logger);
  ManualClock clock(50);
  logger.SetClock(&clock);

  {
    Trace trace("request", &clock, /*forced_id=*/777);
    const ScopedTraceActivation activation(&trace);
    LogEvent(&logger, LogLevel::kInfo, "server", "slow_query")
        .Arg("elapsed_ns", static_cast<uint64_t>(9));
  }
  LogEvent(&logger, LogLevel::kInfo, "server", "no_trace");

  ASSERT_EQ(captured.lines.size(), 2u);
  EXPECT_NE(captured.lines[0].find(" trace=777"), std::string::npos);
  EXPECT_EQ(captured.lines[1].find("trace="), std::string::npos);
}

TEST(LogTest, ForcedTraceIdAdoptsWireId) {
  // The Trace ctor's forced_id is what lets the server adopt a client's
  // wire trace id; 0 must still draw a fresh process-unique id.
  ManualClock clock(0);
  Trace forced("server.dispatch", &clock, 4242);
  EXPECT_EQ(forced.trace_id(), 4242u);
  Trace drawn_a("a", &clock);
  Trace drawn_b("b", &clock, 0);
  EXPECT_NE(drawn_a.trace_id(), 0u);
  EXPECT_NE(drawn_b.trace_id(), 0u);
  EXPECT_NE(drawn_a.trace_id(), drawn_b.trace_id());
}

TEST(LogTest, ParseLogLevelRoundTrips) {
  LogLevel level;
  ASSERT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  ASSERT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "warn");
}

TEST(LogTest, NullSinkRestoresDefaultWithoutCrashing) {
  Logger logger;
  CapturedLines captured;
  captured.Attach(&logger);
  LogEvent(&logger, LogLevel::kInfo, "t", "captured");
  EXPECT_EQ(captured.lines.size(), 1u);
  // Restoring the default stderr sink must not emit into the old capture.
  logger.SetSink(nullptr, nullptr);
  EXPECT_EQ(captured.lines.size(), 1u);
}

}  // namespace
}  // namespace mope::obs
