#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/registry.h"

namespace mope::obs {
namespace {

TEST(TraceTest, SpansNestByCallStructure) {
  ManualClock clock(0, 10);
  Trace trace("q", &clock);
  const uint32_t outer = trace.StartSpan("outer");
  const uint32_t inner = trace.StartSpan("inner");
  trace.EndSpan(inner);
  trace.EndSpan(outer);
  const uint32_t sibling = trace.StartSpan("sibling");
  trace.EndSpan(sibling);

  const std::vector<Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);  // root
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].parent, 0u);  // outer closed before it started
  EXPECT_TRUE(trace.TimingsMonotone());
}

TEST(TraceTest, ManualClockTimingsAreExact) {
  // auto_advance=10: every clock read is 10ns after the previous one, so
  // durations are fully determined by the number of reads in between.
  ManualClock clock(100, 10);
  Trace trace("q", &clock);
  const uint32_t a = trace.StartSpan("a");  // start 110
  const uint32_t b = trace.StartSpan("b");  // start 120
  trace.EndSpan(b);                         // end 130
  trace.EndSpan(a);                         // end 140
  const std::vector<Span> spans = trace.spans();
  EXPECT_EQ(spans[0].start_ns, 110u);
  EXPECT_EQ(spans[0].end_ns, 140u);
  EXPECT_EQ(spans[1].start_ns, 120u);
  EXPECT_EQ(spans[1].end_ns, 130u);
}

TEST(TraceTest, CountSpansMatchesExactNames) {
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  for (int i = 0; i < 3; ++i) {
    const uint32_t id = trace.StartSpan("net.roundtrip");
    trace.EndSpan(id);
  }
  const uint32_t other = trace.StartSpan("net.roundtrip.extra");
  trace.EndSpan(other);
  EXPECT_EQ(trace.CountSpans("net.roundtrip"), 3u);
  EXPECT_EQ(trace.CountSpans("net.roundtrip.extra"), 1u);
  EXPECT_EQ(trace.CountSpans("absent"), 0u);
}

TEST(TraceTest, CountersAccumulate) {
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  trace.IncrementCounter("ope.hgd_draws", 5);
  trace.IncrementCounter("ope.hgd_draws");
  trace.IncrementCounter("net.retries", 2);
  const auto counters = trace.counters();
  EXPECT_EQ(counters.at("ope.hgd_draws"), 6u);
  EXPECT_EQ(counters.at("net.retries"), 2u);
}

TEST(TraceTest, TraceIdsAreUniqueAndIncreasing) {
  ManualClock clock(0, 1);
  Trace first("a", &clock);
  Trace second("b", &clock);
  EXPECT_GT(first.trace_id(), 0u);
  EXPECT_GT(second.trace_id(), first.trace_id());
}

TEST(TraceTest, RenderTreeShowsNestingAndCounters) {
  ManualClock clock(0, 1000);  // 1us per clock read — durations land on .000
  Trace trace("sql.execute", &clock);
  const uint32_t outer = trace.StartSpan("parse");
  const uint32_t inner = trace.StartSpan("lex");
  trace.EndSpan(inner);
  trace.EndSpan(outer);
  trace.IncrementCounter("tokens", 7);

  const std::string tree = trace.RenderTree();
  EXPECT_NE(tree.find("\"sql.execute\"\n"), std::string::npos);
  EXPECT_NE(tree.find("  parse  3.000us\n"), std::string::npos);
  EXPECT_NE(tree.find("    lex  1.000us\n"), std::string::npos);  // indented
  EXPECT_NE(tree.find("  #tokens = 7\n"), std::string::npos);
}

TEST(TraceActivationTest, CurrentTraceFollowsScopes) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  EXPECT_EQ(CurrentTraceId(), 0u);
  ManualClock clock(0, 1);
  Trace outer("outer", &clock);
  {
    ScopedTraceActivation activate_outer(&outer);
    EXPECT_EQ(CurrentTrace(), &outer);
    EXPECT_EQ(CurrentTraceId(), outer.trace_id());
    {
      // Traces nest: the inner activation wins, then the outer is restored.
      Trace inner("inner", &clock);
      ScopedTraceActivation activate_inner(&inner);
      EXPECT_EQ(CurrentTrace(), &inner);
      EXPECT_EQ(CurrentTraceId(), inner.trace_id());
    }
    EXPECT_EQ(CurrentTrace(), &outer);
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST(TraceActivationTest, ScopedSpanAndBumpAreNoOpsWhenOff) {
  ASSERT_EQ(CurrentTrace(), nullptr);
  MetricsRegistry registry;
  {
    ScopedSpan span("orphan");  // must not crash or record anywhere
    registry.GetCounter("orphan.counter")->Increment(3);
  }
  // And with a trace active, the same code records against it.
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  {
    ScopedTraceActivation activate(&trace);
    ScopedSpan span("work");
    registry.GetCounter("work.items")->Increment(2);
  }
  EXPECT_EQ(trace.CountSpans("work"), 1u);
  EXPECT_EQ(trace.counters().at("work.items"), 2u);
}

TEST(TraceActivationTest, ActivationIsPerThread) {
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  const ScopedTraceActivation scope(&trace);
  Trace* seen = &trace;
  // Another thread must not observe this thread's trace: a concurrent
  // untraced query can't leak counters into someone's EXPLAIN ANALYZE.
  std::thread([&seen] { seen = CurrentTrace(); }).join();
  EXPECT_EQ(seen, nullptr);
}

TEST(TraceCreditTest, CounterBumpedUnderActiveTraceCreditsItsName) {
  MetricsRegistry registry;
  Counter* rows = registry.GetCounter("engine.rows_returned");
  Counter* calls = registry.GetCounter("ope.encrypt_calls");
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  {
    const ScopedTraceActivation activate(&trace);
    rows->Increment(5);
    rows->Increment(7);
    calls->Increment();
    calls->Increment();
    calls->Increment();
  }
  // Every bump reached the trace under the registry's name, with the same
  // total the registry holds.
  const auto counters = trace.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters.at("engine.rows_returned"), rows->Value());
  EXPECT_EQ(counters.at("ope.encrypt_calls"), calls->Value());
  EXPECT_EQ(rows->Value(), 12u);
  EXPECT_EQ(calls->Value(), 3u);
}

TEST(TraceCreditTest, OtherThreadsAndNoTraceCreditNothing) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("engine.batches_received");
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  counter->Increment(2);  // before activation
  {
    const ScopedTraceActivation activate(&trace);
    // A bump on another thread belongs to whatever that thread is doing.
    std::thread([counter] { counter->Increment(3); }).join();
  }
  counter->Increment(4);  // after deactivation
  EXPECT_EQ(counter->Value(), 9u);
  EXPECT_TRUE(trace.counters().empty());
}

TEST(TraceTest, OutOfOrderEndDoesNotWedgeTheStack) {
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  const uint32_t outer = trace.StartSpan("outer");
  const uint32_t inner = trace.StartSpan("inner");
  trace.EndSpan(outer);  // closes outer (and pops inner from the stack)
  trace.EndSpan(inner);
  const uint32_t next = trace.StartSpan("next");
  trace.EndSpan(next);
  EXPECT_EQ(trace.spans()[2].parent, 0u);  // stack recovered: next is a root
}

}  // namespace
}  // namespace mope::obs
