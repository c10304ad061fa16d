#include "obs/alerts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.h"
#include "obs/registry.h"

namespace mope::obs {
namespace {

/// Builds a name-sorted TypedSnapshot-like vector (Observe's contract).
std::vector<TypedSample> Samples(
    std::vector<TypedSample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const TypedSample& a, const TypedSample& b) {
              return a.name < b.name;
            });
  return samples;
}

uint64_t GaugeBits(int64_t v) { return static_cast<uint64_t>(v); }

TEST(ParseAlertRuleTest, RoundTripsTheGrammar) {
  const char* specs[] = {
      "p99_slow: server.dispatch_ns.p99 > 1e+08 for 3",
      "miss_rate: rate(storage.pool.misses) > 10000",
      "margin_drop: delta(leakage.gap.margin) < 0",
      "chi2: leakage.uniformity.chi2_milli >= "
      "leakage.uniformity.chi2_critical_milli",
      "floor: engine.queries <= 5",
  };
  for (const char* spec : specs) {
    auto rule = ParseAlertRule(spec);
    ASSERT_TRUE(rule.ok()) << spec << ": " << rule.status().ToString();
    EXPECT_EQ(FormatAlertRule(*rule), spec);
  }
}

TEST(ParseAlertRuleTest, ParsesEachPiece) {
  auto rule = ParseAlertRule("r1: rate(c.total) >= 2.5 for 4");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->name, "r1");
  EXPECT_EQ(rule->term, AlertTermKind::kRate);
  EXPECT_EQ(rule->metric, "c.total");
  EXPECT_EQ(rule->op, AlertComparator::kGe);
  EXPECT_FALSE(rule->rhs_is_metric);
  EXPECT_DOUBLE_EQ(rule->threshold, 2.5);
  EXPECT_EQ(rule->for_samples, 4u);

  auto metric_rhs = ParseAlertRule("r2: a < b");
  ASSERT_TRUE(metric_rhs.ok());
  EXPECT_TRUE(metric_rhs->rhs_is_metric);
  EXPECT_EQ(metric_rhs->rhs_metric, "b");
}

TEST(ParseAlertRuleTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "no colon here",                 // missing ':'
      "bad name!: m > 1",              // illegal rule name
      "r: > 1",                        // missing term
      "r: m ~ 1",                      // bad comparator
      "r: m > !!",                     // RHS neither number nor metric
      "r: m > 1 for 0",                // zero 'for'
      "r: m > 1 for x",                // non-numeric 'for'
      "r: m > 1 every 3",              // not 'for'
      "r: rate() > 1",                 // empty metric in rate()
      "r: m 1 2 3 4 5",                // wrong token count
  };
  for (const char* spec : bad) {
    EXPECT_TRUE(ParseAlertRule(spec).status().IsInvalidArgument()) << spec;
  }
}

TEST(ParseAlertRuleTest, RejectsNonFiniteThresholds) {
  // strtod reads all of these; a nan threshold never fires and an infinite
  // one would render as "threshold":inf, which is not JSON.
  const char* bad[] = {
      "r: g > nan",       "r: g > NAN",  "r: g > inf",
      "r: g < -infinity", "r: g >= 1e999",
  };
  for (const char* spec : bad) {
    EXPECT_TRUE(ParseAlertRule(spec).status().IsInvalidArgument()) << spec;
  }
}

TEST(AlertEngineTest, FiringAndResolvedEdgesUnderManualClock) {
  MetricsRegistry registry;
  ManualClock clock(100);
  AlertEngine engine(&registry, &clock);
  ASSERT_TRUE(engine.AddRuleSpec("hot: temp > 10").ok());

  engine.Observe(100, Samples({{"temp", MetricKind::kGauge, GaugeBits(5)}}));
  EXPECT_EQ(engine.firing_count(), 0u);
  EXPECT_EQ(registry.GetGauge("alerts.rule.hot")->Value(), 0);

  engine.Observe(200, Samples({{"temp", MetricKind::kGauge, GaugeBits(15)}}));
  EXPECT_EQ(engine.firing_count(), 1u);
  EXPECT_EQ(registry.GetGauge("alerts.rule.hot")->Value(), 1);
  EXPECT_EQ(registry.GetGauge("alerts.active")->Value(), 1);
  EXPECT_EQ(registry.GetCounter("alerts.transitions")->Value(), 1u);

  // Still breached: edge-triggered, so no new transition.
  engine.Observe(300, Samples({{"temp", MetricKind::kGauge, GaugeBits(20)}}));
  EXPECT_EQ(registry.GetCounter("alerts.transitions")->Value(), 1u);
  auto states = engine.States();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_TRUE(states[0].firing);
  EXPECT_EQ(states[0].since_ts_ns, 200u);
  EXPECT_DOUBLE_EQ(states[0].last_value, 20.0);
  EXPECT_DOUBLE_EQ(states[0].last_threshold, 10.0);

  // One clean sample resolves.
  engine.Observe(400, Samples({{"temp", MetricKind::kGauge, GaugeBits(3)}}));
  EXPECT_EQ(engine.firing_count(), 0u);
  EXPECT_EQ(registry.GetGauge("alerts.rule.hot")->Value(), 0);
  EXPECT_EQ(registry.GetCounter("alerts.transitions")->Value(), 2u);
}

TEST(AlertEngineTest, ForRequiresConsecutiveBreaches) {
  MetricsRegistry registry;
  AlertEngine engine(&registry);
  ASSERT_TRUE(engine.AddRuleSpec("slow: p99 > 100 for 3").ok());

  const auto breach = Samples({{"p99", MetricKind::kDerived, 200}});
  const auto clean = Samples({{"p99", MetricKind::kDerived, 50}});

  engine.Observe(1, breach);
  engine.Observe(2, breach);
  EXPECT_EQ(engine.firing_count(), 0u);  // streak 2 < 3
  engine.Observe(3, clean);              // streak resets
  engine.Observe(4, breach);
  engine.Observe(5, breach);
  EXPECT_EQ(engine.firing_count(), 0u);
  engine.Observe(6, breach);
  EXPECT_EQ(engine.firing_count(), 1u);  // third consecutive breach
}

TEST(AlertEngineTest, DeltaNeedsTwoSamplesAndSeesSignedChange) {
  MetricsRegistry registry;
  AlertEngine engine(&registry);
  ASSERT_TRUE(engine.AddRuleSpec("rising: delta(margin) > 0").ok());

  engine.Observe(1, Samples({{"margin", MetricKind::kGauge, GaugeBits(-10)}}));
  EXPECT_FALSE(engine.States()[0].evaluated);  // first sample only primes

  engine.Observe(2, Samples({{"margin", MetricKind::kGauge, GaugeBits(-4)}}));
  EXPECT_TRUE(engine.States()[0].evaluated);
  EXPECT_DOUBLE_EQ(engine.States()[0].last_value, 6.0);  // -4 - (-10)
  EXPECT_EQ(engine.firing_count(), 1u);

  engine.Observe(3, Samples({{"margin", MetricKind::kGauge, GaugeBits(-9)}}));
  EXPECT_EQ(engine.firing_count(), 0u);  // delta -5 resolves
}

TEST(AlertEngineTest, RateIsPerSecondAndCounterResetAware) {
  MetricsRegistry registry;
  AlertEngine engine(&registry);
  ASSERT_TRUE(engine.AddRuleSpec("busy: rate(reqs) > 10").ok());

  // ts 0 is the "use the wall clock" sentinel, so the series starts at 1.
  engine.Observe(1, Samples({{"reqs", MetricKind::kCounter, 100}}));
  engine.Observe(1'000'000'001,
                 Samples({{"reqs", MetricKind::kCounter, 125}}));
  EXPECT_DOUBLE_EQ(engine.States()[0].last_value, 25.0);
  EXPECT_EQ(engine.firing_count(), 1u);

  // Counter reset: the post-reset value is the interval's contribution.
  engine.Observe(2'000'000'001, Samples({{"reqs", MetricKind::kCounter, 5}}));
  EXPECT_DOUBLE_EQ(engine.States()[0].last_value, 5.0);
  EXPECT_EQ(engine.firing_count(), 0u);
}

TEST(AlertEngineTest, MetricRhsComparesTwoLiveSeries) {
  MetricsRegistry registry;
  AlertEngine engine(&registry);
  ASSERT_TRUE(engine.AddRuleSpec("chi2: stat > critical").ok());

  engine.Observe(1, Samples({{"critical", MetricKind::kGauge, GaugeBits(50)},
                             {"stat", MetricKind::kGauge, GaugeBits(40)}}));
  EXPECT_EQ(engine.firing_count(), 0u);
  engine.Observe(2, Samples({{"critical", MetricKind::kGauge, GaugeBits(50)},
                             {"stat", MetricKind::kGauge, GaugeBits(60)}}));
  EXPECT_EQ(engine.firing_count(), 1u);
  EXPECT_DOUBLE_EQ(engine.States()[0].last_threshold, 50.0);

  // RHS metric vanishing parks the rule without resolving it.
  engine.Observe(3, Samples({{"stat", MetricKind::kGauge, GaugeBits(60)}}));
  EXPECT_FALSE(engine.States()[0].evaluated);
  EXPECT_EQ(engine.firing_count(), 1u);
}

TEST(AlertEngineTest, MissingMetricParksTheRule) {
  MetricsRegistry registry;
  AlertEngine engine(&registry);
  ASSERT_TRUE(engine.AddRuleSpec("r: ghost > 1").ok());
  engine.Observe(1, Samples({{"other", MetricKind::kGauge, 0}}));
  EXPECT_FALSE(engine.States()[0].evaluated);
  EXPECT_EQ(engine.firing_count(), 0u);
}

TEST(AlertEngineTest, DuplicateRuleNamesAreRejected) {
  MetricsRegistry registry;
  AlertEngine engine(&registry);
  ASSERT_TRUE(engine.AddRuleSpec("r: m > 1").ok());
  EXPECT_TRUE(engine.AddRuleSpec("r: m > 2").IsAlreadyExists());
  EXPECT_EQ(engine.rule_count(), 1u);
}

TEST(AlertEngineTest, DefaultRuleSetInstalls) {
  MetricsRegistry registry;
  AlertEngine engine(&registry);
  engine.AddDefaultRules();
  EXPECT_EQ(engine.rule_count(), 4u);
  // Every default rule gets its 0/1 gauge up front.
  EXPECT_EQ(registry.GetGauge("alerts.rule.gap_margin_converging")->Value(),
            0);
  EXPECT_EQ(registry.GetGauge("alerts.rule.wal_fsync_stall")->Value(), 0);
}

TEST(AlertEngineTest, RenderJsonCarriesRuleStateAndFiringCount) {
  MetricsRegistry registry;
  AlertEngine engine(&registry);
  ASSERT_TRUE(engine.AddRuleSpec("hot: temp > 10").ok());
  engine.Observe(5, Samples({{"temp", MetricKind::kGauge, GaugeBits(99)}}));

  const std::string json = engine.RenderJson();
  EXPECT_NE(json.find("\"firing\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"hot\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"hot: temp > 10\""), std::string::npos);
  EXPECT_NE(json.find("\"since_ts_ns\":5"), std::string::npos);
  EXPECT_NE(json.find("\"value\":99"), std::string::npos);
  EXPECT_NE(json.find("\"threshold\":10"), std::string::npos);
}

}  // namespace
}  // namespace mope::obs
