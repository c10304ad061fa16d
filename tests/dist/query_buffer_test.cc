#include "dist/query_buffer.h"

#include <gtest/gtest.h>

namespace mope::dist {
namespace {

TEST(QueryBufferTest, StartsEmpty) {
  QueryBuffer buf(16);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_FALSE(buf.Estimate().ok());
  EXPECT_FALSE(buf.PeriodicPlan(1).ok());
}

TEST(QueryBufferTest, HistogramTracksAdds) {
  QueryBuffer buf(8);
  buf.Add(3);
  buf.Add(3);
  buf.Add(5);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.histogram().count(3), 2u);
  EXPECT_EQ(buf.histogram().count(5), 1u);
}

TEST(QueryBufferTest, EstimateMatchesEmpiricalFrequencies) {
  QueryBuffer buf(4);
  buf.Add(0);
  buf.Add(1);
  buf.Add(1);
  buf.Add(1);
  auto d = buf.Estimate();
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->prob(0), 0.25);
  EXPECT_DOUBLE_EQ(d->prob(1), 0.75);
}

TEST(QueryBufferTest, SingleQueryEstimateIsPointMass) {
  // "After the user makes the first query, the system estimates that the
  // query distribution is entirely concentrated on this point" (Sec. 1.1).
  QueryBuffer buf(100);
  buf.Add(42);
  auto plan = buf.PeriodicPlan(1);
  ASSERT_TRUE(plan.ok());
  // Point mass: µ = 1, alpha = 1/M -> nearly always a fake query.
  EXPECT_NEAR(plan->alpha, 0.01, 1e-12);
}

TEST(QueryBufferTest, PlansReflectBufferEvolution) {
  QueryBuffer buf(10);
  for (uint64_t i = 0; i < 10; ++i) buf.Add(i);
  // Buffer is now uniform: no fakes needed.
  auto plan = buf.PeriodicPlan(1);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->alpha, 1.0);
}

TEST(QueryBufferTest, PeriodicPlanFromBuffer) {
  QueryBuffer buf(12);
  buf.Add(0);
  buf.Add(4);
  buf.Add(8);  // all congruent mod 4
  auto plan = buf.PeriodicPlan(4);
  ASSERT_TRUE(plan.ok());
  // The estimate is 4-periodic up to the missing classes; the plan's
  // perceived distribution must be exactly periodic.
  for (uint64_t i = 0; i + 4 < 12; ++i) {
    EXPECT_NEAR(plan->perceived.prob(i), plan->perceived.prob(i + 4), 1e-12);
  }
}

TEST(QueryBufferTest, AddOutOfDomainAborts) {
  QueryBuffer buf(4);
  EXPECT_DEATH(buf.Add(4), "domain");
}

}  // namespace
}  // namespace mope::dist
