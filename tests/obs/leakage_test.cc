#include "obs/leakage.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/gap_attack.h"
#include "common/math_util.h"
#include "common/random.h"
#include "dist/distribution.h"
#include "obs/registry.h"
#include "query/algorithms.h"

namespace mope::obs {
namespace {

// The auditor must reach the *same* conclusions as the offline Section 5
// harness (attack::GapAttack) on the same stream — these tests replay the
// paper's two regimes (naive MOPE, QueryU-mixed) through both and compare.

std::unique_ptr<LeakageAuditor> MakeAuditor(const LeakageAuditConfig& config,
                                            MetricsRegistry* registry) {
  auto auditor = LeakageAuditor::Create(config, registry);
  EXPECT_TRUE(auditor.ok()) << auditor.status().ToString();
  return std::move(*auditor);
}

TEST(LeakageAuditorTest, CreateValidatesConfig) {
  MetricsRegistry registry;
  LeakageAuditConfig c;
  c.space = 0;
  EXPECT_FALSE(LeakageAuditor::Create(c, &registry).ok());
  c.space = 64;
  c.buckets = 1;
  EXPECT_FALSE(LeakageAuditor::Create(c, &registry).ok());
  c.buckets = 65;
  EXPECT_FALSE(LeakageAuditor::Create(c, &registry).ok());
  c.buckets = 16;
  c.window = 8;  // must cover >= one sample per bucket
  EXPECT_FALSE(LeakageAuditor::Create(c, &registry).ok());
  c.window = 64;
  c.alpha = 0.0;
  EXPECT_FALSE(LeakageAuditor::Create(c, &registry).ok());
  c.alpha = 0.01;
  c.expected = {1.0, 2.0};  // size != buckets
  EXPECT_FALSE(LeakageAuditor::Create(c, &registry).ok());
  c.expected.assign(16, 0.0);  // all-zero mass
  EXPECT_FALSE(LeakageAuditor::Create(c, &registry).ok());
  c.expected.assign(16, 1.0);
  c.expected[3] = -1.0;  // negative mass
  EXPECT_FALSE(LeakageAuditor::Create(c, &registry).ok());
  c.expected.clear();
  c.max_points = 1;
  EXPECT_FALSE(LeakageAuditor::Create(c, &registry).ok());
  c.max_points = 1 << 20;
  EXPECT_TRUE(LeakageAuditor::Create(c, &registry).ok());
  // A null registry is a supported (publish-nowhere) mode.
  EXPECT_TRUE(LeakageAuditor::Create(c, nullptr).ok());
}

// Naive MOPE (no fakes): valid length-k queries never straddle the domain
// wrap, so the shifted-space stream leaves a width-(k-1) arc just below the
// offset uncovered. The auditor must pin the offset exactly as the offline
// GapAttack does, and must raise the alert.
TEST(LeakageAuditorTest, RawStreamRecoversOffsetAndAlerts) {
  constexpr uint64_t kDomain = 101;
  constexpr uint64_t kK = 20;
  constexpr uint64_t kOffset = 37;

  MetricsRegistry registry;
  LeakageAuditConfig config;
  config.space = kDomain;  // offline rank-space replay: space == M
  config.domain = kDomain;
  config.buckets = 16;
  config.window = 512;
  config.min_observations = 512;
  auto auditor = MakeAuditor(config, &registry);

  attack::GapAttack offline(kDomain);
  Rng rng(0x5ec5);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t start = rng.UniformUint64(kDomain - kK + 1);
    const uint64_t shifted = (start + kOffset) % kDomain;
    auditor->ObserveStart(shifted);
    offline.ObserveStart(shifted);
  }

  const LeakageVerdict v = auditor->Verdict();
  auto offline_offset = offline.EstimateOffset();
  ASSERT_TRUE(offline_offset.ok());
  EXPECT_EQ(v.offset_estimate, kOffset);
  EXPECT_EQ(v.offset_estimate, *offline_offset);
  EXPECT_EQ(v.largest_gap, offline.LongestGap());
  EXPECT_EQ(v.largest_gap, kK - 1);
  // All other arcs closed after 3000 draws over 82 starts, so the margin is
  // the whole forbidden band.
  EXPECT_EQ(v.second_gap, 0u);
  EXPECT_EQ(v.gap_margin, kK - 1);
  // 19 of 101 starts unseen after 3000 ~Bin(3000, 1/101) trials is wildly
  // unlikely under a healthy mix.
  EXPECT_GT(v.confidence, 0.999);
  EXPECT_TRUE(v.alert);
}

// QueryU's whole point: the perceived stream (reals + fakes) is uniform, so
// the auditor must stay quiet — coverage completes (no gap confidence) and
// the windowed chi-square stays below its critical value. Checked across
// seeds so one lucky permutation can't carry the test.
TEST(LeakageAuditorTest, UniformMixStaysBelowThreshold) {
  constexpr uint64_t kDomain = 64;
  constexpr uint64_t kK = 8;
  constexpr uint64_t kOffset = 23;

  for (const uint64_t seed : {11u, 222u, 3333u}) {
    std::vector<double> weights(kDomain);
    for (uint64_t i = 0; i < kDomain; ++i) {
      weights[i] = 1.0 / static_cast<double>(1 + i);  // skewed user queries
    }
    auto q = dist::Distribution::FromWeights(std::move(weights));
    ASSERT_TRUE(q.ok());
    auto alg = query::PeriodicQueryAlgorithm::Create({kDomain, kK}, *q, 1);
    ASSERT_TRUE(alg.ok());

    MetricsRegistry registry;
    LeakageAuditConfig config;
    config.space = kDomain;
    config.domain = kDomain;
    config.buckets = 16;
    config.window = 2048;
    config.min_observations = 512;
    auto auditor = MakeAuditor(config, &registry);

    Rng rng(seed);
    for (int i = 0; i < 1200; ++i) {
      uint64_t start = q->Sample(&rng);
      if (start > kDomain - kK) start = kDomain - kK;
      auto batch = (*alg)->Process(query::RangeQuery{start, start + kK - 1},
                                   &rng);
      ASSERT_TRUE(batch.ok());
      for (const auto& fq : *batch) {
        auditor->ObserveStart((fq.start + kOffset) % kDomain);
      }
    }

    const LeakageVerdict v = auditor->Verdict();
    EXPECT_GE(v.observations, 1200u);
    // Fakes cover wrap-around starts too: full coverage, no gap to orient by.
    EXPECT_EQ(v.distinct, kDomain) << "seed " << seed;
    EXPECT_EQ(v.largest_gap, 0u) << "seed " << seed;
    EXPECT_DOUBLE_EQ(v.confidence, 0.0) << "seed " << seed;
    EXPECT_GT(v.chi2_critical, 0.0) << "seed " << seed;
    EXPECT_LT(v.chi2, v.chi2_critical) << "seed " << seed;
    EXPECT_FALSE(v.alert) << "seed " << seed;
  }
}

// QueryP deployments audit against their own rho-periodic target via
// config.expected. The same periodic stream must pass against the periodic
// target (and against the self-calibrating default) but trip the alarm
// against a uniform target — the statistic distinguishes the two mixes.
TEST(LeakageAuditorTest, PeriodicStreamJudgedAgainstExplicitTarget) {
  constexpr uint64_t kSpace = 64;
  constexpr uint64_t kPeriod = 8;
  constexpr uint64_t kBuckets = 32;
  // Start points are multiples of 8; bucket = start * 32 / 64 = start / 2,
  // so the periodic stream occupies exactly the buckets divisible by 4.
  std::vector<double> periodic_target(kBuckets, 0.0);
  for (uint64_t b = 0; b < kBuckets; b += 4) periodic_target[b] = 1.0;

  MetricsRegistry registry;
  LeakageAuditConfig config;
  config.space = kSpace;
  config.buckets = kBuckets;
  config.window = 512;
  config.min_observations = 256;
  config.expected = periodic_target;
  auto against_periodic = MakeAuditor(config, &registry);
  config.expected.assign(kBuckets, 1.0);  // wrong target: uniform
  auto against_uniform = MakeAuditor(config, nullptr);
  config.expected.clear();  // self-calibrating default
  auto self_calibrated = MakeAuditor(config, nullptr);

  Rng rng(0xF00D);
  for (int i = 0; i < 1024; ++i) {
    const uint64_t start = kPeriod * rng.UniformUint64(kSpace / kPeriod);
    against_periodic->ObserveStart(start);
    against_uniform->ObserveStart(start);
    self_calibrated->ObserveStart(start);
  }

  const LeakageVerdict ok_verdict = against_periodic->Verdict();
  EXPECT_LT(ok_verdict.chi2, ok_verdict.chi2_critical);
  EXPECT_FALSE(ok_verdict.alert);

  const LeakageVerdict self_verdict = self_calibrated->Verdict();
  EXPECT_LT(self_verdict.chi2, self_verdict.chi2_critical);
  EXPECT_FALSE(self_verdict.alert);

  // Against a uniform target, 3/4 of the expected mass sits in buckets the
  // periodic stream never touches: chi2 blows past critical.
  const LeakageVerdict bad_verdict = against_uniform->Verdict();
  EXPECT_GT(bad_verdict.chi2, bad_verdict.chi2_critical);
  EXPECT_TRUE(bad_verdict.alert);
}

// The window must *forget*: a sampler that breaks and then is fixed should
// drive chi2 up and back down as the bad samples age out.
TEST(LeakageAuditorTest, SlidingWindowEvictsOldBehaviour) {
  constexpr uint64_t kSpace = 64;
  constexpr uint64_t kWindow = 256;

  LeakageAuditConfig config;
  config.space = kSpace;
  config.buckets = 8;
  config.window = kWindow;
  config.min_observations = 1;
  auto auditor = MakeAuditor(config, nullptr);

  Rng rng(0xCAFE);
  // Healthy phase: uniform starts establish support and fill the window.
  for (uint64_t i = 0; i < kWindow; ++i) {
    auditor->ObserveStart(rng.UniformUint64(kSpace));
  }
  const LeakageVerdict healthy = auditor->Verdict();
  EXPECT_EQ(healthy.window_fill, kWindow);
  EXPECT_LT(healthy.chi2, healthy.chi2_critical);

  // Broken sampler: a full window of the same start point.
  for (uint64_t i = 0; i < kWindow; ++i) auditor->ObserveStart(5);
  const LeakageVerdict broken = auditor->Verdict();
  EXPECT_EQ(broken.window_fill, kWindow);  // capped, old samples evicted
  EXPECT_GT(broken.chi2, broken.chi2_critical);
  EXPECT_TRUE(broken.alert);

  // Fixed again: once the point-mass window has fully aged out, the verdict
  // must recover — month-old good history must not mask it and vice versa.
  for (uint64_t i = 0; i < kWindow; ++i) {
    auditor->ObserveStart(rng.UniformUint64(kSpace));
  }
  const LeakageVerdict recovered = auditor->Verdict();
  EXPECT_EQ(recovered.window_fill, kWindow);
  EXPECT_LT(recovered.chi2, recovered.chi2_critical);
  EXPECT_FALSE(recovered.alert);
}

TEST(LeakageAuditorTest, SaturationCapsTrackedPointsAndRaisesGauge) {
  MetricsRegistry registry;
  LeakageAuditConfig config;
  config.space = 64;
  config.buckets = 8;
  config.window = 16;
  config.max_points = 4;
  auto auditor = MakeAuditor(config, &registry);

  for (uint64_t x = 0; x < 10; ++x) auditor->ObserveStart(x);
  const LeakageVerdict v = auditor->Verdict();
  EXPECT_EQ(v.observations, 10u);
  EXPECT_EQ(v.distinct, 4u);  // capped
  bool found = false;
  for (const auto& [name, value] : registry.Snapshot()) {
    if (name == LeakageAuditor::kGaugeSaturated) {
      EXPECT_EQ(value, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// The observed start arrives straight off the wire: values outside the
// audited space (hostile frame, or client/server audit-domain mismatch)
// must be skipped and counted, never CHECK-abort the server.
TEST(LeakageAuditorTest, OutOfSpaceStartsAreSkippedAndCounted) {
  MetricsRegistry registry;
  LeakageAuditConfig config;
  config.space = 64;
  config.buckets = 8;
  config.window = 16;
  auto auditor = MakeAuditor(config, &registry);

  auditor->ObserveStart(5);
  auditor->ObserveStart(64);                   // == space
  auditor->ObserveStart(uint64_t{1} << 40);    // absurd wire value
  auditor->ObserveStart(7);

  const LeakageVerdict v = auditor->Verdict();
  EXPECT_EQ(v.observations, 2u);  // only the in-space starts
  EXPECT_EQ(v.distinct, 2u);
  EXPECT_EQ(v.out_of_space, 2u);
  uint64_t gauge = 0;
  for (const auto& [name, value] : registry.Snapshot()) {
    if (name == LeakageAuditor::kGaugeOutOfSpace) gauge = value;
  }
  EXPECT_EQ(gauge, 2u);
}

// After the max_points cap saturates, new distinct starts still enter the
// sliding window — their buckets must keep accruing support weight, or the
// self-calibrating chi-square degenerates to the infinite sentinel and
// latches a false alert on a perfectly healthy stream.
TEST(LeakageAuditorTest, SaturatedStreamKeepsChiSquareFiniteAndQuiet) {
  MetricsRegistry registry;
  LeakageAuditConfig config;
  config.space = 256;
  config.buckets = 8;
  config.window = 128;
  config.max_points = 4;  // saturate almost immediately
  config.min_observations = 256;
  auto auditor = MakeAuditor(config, &registry);

  Rng rng(0xfeed);
  for (int i = 0; i < 1024; ++i) {
    auditor->ObserveStart(rng.UniformUint64(config.space));
  }
  const LeakageVerdict v = auditor->Verdict();
  EXPECT_EQ(v.distinct, 4u);
  ASSERT_TRUE(std::isfinite(v.chi2));
  EXPECT_LT(v.chi2, v.chi2_critical);
  EXPECT_FALSE(v.alert);
}

TEST(LeakageAuditorTest, PublishesGaugesOnCadenceWithoutExplicitCalls) {
  MetricsRegistry registry;
  LeakageAuditConfig config;
  config.space = 64;
  config.buckets = 8;
  config.window = 64;
  auto auditor = MakeAuditor(config, &registry);

  Rng rng(7);
  for (int i = 0; i < 64; ++i) {  // exactly kPublishEvery
    auditor->ObserveStart(rng.UniformUint64(64));
  }
  uint64_t observations = 0;
  for (const auto& [name, value] : registry.Snapshot()) {
    if (name == LeakageAuditor::kGaugeObservations) observations = value;
  }
  EXPECT_EQ(observations, 64u);
}

TEST(LeakageAuditorTest, DescribeStatsRendersVerdictFromSnapshot) {
  EXPECT_NE(LeakageAuditor::DescribeStats({}).find("not enabled"),
            std::string::npos);

  MetricsRegistry registry;
  LeakageAuditConfig config;
  config.space = 101;
  config.domain = 101;
  config.buckets = 16;
  config.window = 512;
  config.min_observations = 256;
  auto auditor = MakeAuditor(config, &registry);
  Rng rng(0x5ec5);
  for (int i = 0; i < 2000; ++i) {
    auditor->ObserveStart((rng.UniformUint64(82) + 37) % 101);
  }
  auditor->Publish();

  const std::string report = LeakageAuditor::DescribeStats(registry.Snapshot());
  EXPECT_NE(report.find("live leakage audit"), std::string::npos);
  EXPECT_NE(report.find("offset estimate     37"), std::string::npos);
  EXPECT_NE(report.find("ALERT"), std::string::npos);
}

}  // namespace
}  // namespace mope::obs
