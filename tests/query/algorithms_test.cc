#include "query/algorithms.h"

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"

namespace mope::query {
namespace {

dist::Distribution Skewed(uint64_t m) {
  std::vector<double> w(m);
  for (uint64_t i = 0; i < m; ++i) w[i] = 1.0 / static_cast<double>(1 + i);
  return std::move(dist::Distribution::FromWeights(std::move(w))).value();
}

/// QueryU is QueryP[1].
Result<std::unique_ptr<PeriodicQueryAlgorithm>> CreateQueryU(
    const QueryConfig& config, const dist::Distribution& q) {
  return PeriodicQueryAlgorithm::Create(config, q, 1);
}

TEST(UniformQueryTest, CreateValidates) {
  EXPECT_FALSE(CreateQueryU({0, 1}, dist::Distribution::Uniform(4)).ok());
  EXPECT_FALSE(CreateQueryU({4, 5}, dist::Distribution::Uniform(4)).ok());
  EXPECT_FALSE(CreateQueryU({8, 2}, dist::Distribution::Uniform(4)).ok());
  EXPECT_TRUE(CreateQueryU({4, 2}, dist::Distribution::Uniform(4)).ok());
}

TEST(UniformQueryTest, BatchContainsAllRealPieces) {
  auto alg = CreateQueryU({100, 10}, Skewed(100));
  ASSERT_TRUE(alg.ok());
  Rng rng(1);
  const auto batch = (*alg)->Process(RangeQuery{15, 44}, &rng);
  ASSERT_TRUE(batch.ok());
  std::vector<uint64_t> reals;
  for (const auto& fq : *batch) {
    if (fq.kind == QueryKind::kReal) reals.push_back(fq.start);
  }
  std::sort(reals.begin(), reals.end());
  EXPECT_EQ(reals, (std::vector<uint64_t>{15, 25, 35}));
}

TEST(UniformQueryTest, PerceivedStartDistributionIsUniform) {
  // The core security property of QueryU (Figure 2): over many queries, the
  // combined stream of real+fake start points is uniform on [M].
  constexpr uint64_t kM = 40;
  const dist::Distribution q = Skewed(kM);
  auto alg = CreateQueryU({kM, 5}, q);
  ASSERT_TRUE(alg.ok());
  Rng rng(2);
  Histogram perceived(kM);
  for (int i = 0; i < 4000; ++i) {
    // Draw user queries with start distribution q (length k so each query
    // decomposes into exactly one piece).
    uint64_t start = q.Sample(&rng);
    if (start > kM - 5) start = kM - 5;
    const auto batch = (*alg)->Process(RangeQuery{start, start + 4}, &rng);
    ASSERT_TRUE(batch.ok());
    for (const auto& fq : *batch) perceived.Add(fq.start);
  }
  // Clamping start points distorts the top k-1 bins slightly; exclude them
  // from the chi-square check.
  Histogram trimmed(kM - 5);
  for (uint64_t i = 0; i < kM - 5; ++i) trimmed.Add(i, perceived.count(i));
  EXPECT_LT(trimmed.ChiSquareVsUniform(),
            ChiSquareCriticalValue(static_cast<double>(kM - 6), 0.001));
}

TEST(UniformQueryTest, ExpectedFakesMatchesMuM) {
  constexpr uint64_t kM = 30;
  const dist::Distribution q = dist::Distribution::PointMass(kM, 3);
  auto alg = CreateQueryU({kM, 1}, q);
  ASSERT_TRUE(alg.ok());
  EXPECT_NEAR((*alg)->plan().expected_fakes_per_real(), kM - 1.0, 1e-9);
  Rng rng(3);
  uint64_t fakes = 0;
  constexpr int kQueries = 3000;
  for (int i = 0; i < kQueries; ++i) {
    const auto batch = (*alg)->Process(RangeQuery{3, 3}, &rng);
    ASSERT_TRUE(batch.ok());
    fakes += batch->size() - 1;
  }
  EXPECT_NEAR(static_cast<double>(fakes) / kQueries, kM - 1.0, 2.5);
}

TEST(UniformQueryTest, UniformUserDistributionSendsNoFakes) {
  auto alg = CreateQueryU({50, 5}, dist::Distribution::Uniform(50));
  ASSERT_TRUE(alg.ok());
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const auto batch = (*alg)->Process(RangeQuery{10, 14}, &rng);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->size(), 1u);
  }
}

TEST(UniformQueryTest, RejectsInvalidQueries) {
  auto alg = CreateQueryU({50, 5}, dist::Distribution::Uniform(50));
  Rng rng(5);
  EXPECT_FALSE((*alg)->Process(RangeQuery{10, 9}, &rng).ok());
  EXPECT_FALSE((*alg)->Process(RangeQuery{10, 50}, &rng).ok());
}

TEST(PeriodicQueryTest, PerceivedStartDistributionIsPeriodic) {
  constexpr uint64_t kM = 40;
  constexpr uint64_t kPeriod = 8;
  const dist::Distribution q = Skewed(kM);
  auto alg = PeriodicQueryAlgorithm::Create({kM, 1}, q, kPeriod);
  ASSERT_TRUE(alg.ok());
  Rng rng(6);
  Histogram perceived(kM);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t start = q.Sample(&rng);
    const auto batch = (*alg)->Process(RangeQuery{start, start}, &rng);
    ASSERT_TRUE(batch.ok());
    for (const auto& fq : *batch) perceived.Add(fq.start);
  }
  // Empirical distribution should match the plan's periodic target.
  auto empirical = dist::Distribution::FromHistogram(perceived);
  ASSERT_TRUE(empirical.ok());
  EXPECT_LT(empirical->TotalVariationDistance((*alg)->plan().perceived), 0.02);
}

TEST(PeriodicQueryTest, FewerFakesThanUniform) {
  constexpr uint64_t kM = 64;
  const dist::Distribution q = dist::Distribution::PointMass(kM, 5);
  auto uniform = CreateQueryU({kM, 1}, q);
  auto periodic = PeriodicQueryAlgorithm::Create({kM, 1}, q, 16);
  ASSERT_TRUE(uniform.ok() && periodic.ok());
  // Point mass: QueryU needs M-1 = 63 fakes; QueryP[16] needs M/16-1 = 3.
  EXPECT_NEAR((*uniform)->plan().expected_fakes_per_real(), 63.0, 1e-9);
  EXPECT_NEAR((*periodic)->plan().expected_fakes_per_real(), 3.0, 1e-9);
}

TEST(PeriodicQueryTest, RejectsBadPeriod) {
  const dist::Distribution q = dist::Distribution::Uniform(30);
  EXPECT_FALSE(PeriodicQueryAlgorithm::Create({30, 1}, q, 7).ok());
  EXPECT_TRUE(PeriodicQueryAlgorithm::Create({30, 1}, q, 6).ok());
}

TEST(AdaptiveQueryTest, CreateValidatesPeriod) {
  // ρ in [1, M] dividing M, as for QueryP[ρ]; ρ = 1 is AdaptiveQueryU.
  EXPECT_FALSE(AdaptiveQueryAlgorithm::Create({30, 1}, 7).ok());
  EXPECT_TRUE(AdaptiveQueryAlgorithm::Create({30, 1}, 6).ok());
  EXPECT_TRUE(AdaptiveQueryAlgorithm::Create({30, 1}, 1).ok());
  EXPECT_TRUE(AdaptiveQueryAlgorithm::Create({30, 1}, 30).ok());
  EXPECT_EQ(AdaptiveQueryAlgorithm::Create({30, 1}, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AdaptiveQueryAlgorithm::Create({30, 1}, 60).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AdaptiveQueryTest, ProcessExecutesEveryRealPieceExactlyOnce) {
  auto alg = AdaptiveQueryAlgorithm::Create({20, 2}, 1);
  ASSERT_TRUE(alg.ok());
  Rng rng(8);
  const auto batch = (*alg)->Process(RangeQuery{4, 9}, &rng);
  ASSERT_TRUE(batch.ok());
  std::vector<uint64_t> reals;
  for (const auto& fq : *batch) {
    if (fq.kind == QueryKind::kReal) reals.push_back(fq.start);
  }
  std::sort(reals.begin(), reals.end());
  EXPECT_EQ(reals, (std::vector<uint64_t>{4, 6, 8}));
  EXPECT_EQ((*alg)->buffer().size(), 3u);
}

TEST(AdaptiveQueryTest, FirstQueryIsNearlyAlwaysPrecededByFakes) {
  // After one observation the estimate is a point mass: alpha = 1/M, so the
  // first real piece waits behind ~M-1 fakes on average (Section 1.1).
  constexpr uint64_t kM = 40;
  Rng rng(12);
  double total_fakes = 0.0;
  constexpr int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    auto alg = AdaptiveQueryAlgorithm::Create({kM, 1}, 1);
    ASSERT_TRUE(alg.ok());
    const auto batch = (*alg)->Process(RangeQuery{7, 7}, &rng);
    ASSERT_TRUE(batch.ok());
    total_fakes += static_cast<double>(batch->size() - 1);
  }
  EXPECT_NEAR(total_fakes / kTrials, kM - 1.0, 8.0);
}

TEST(AdaptiveQueryTest, ConvergenceReducesFakeRate) {
  // Section 6.5: as the buffer fills, the per-round fake count converges to
  // the non-adaptive QueryU rate.
  constexpr uint64_t kM = 50;
  const dist::Distribution q = Skewed(kM);
  auto alg = AdaptiveQueryAlgorithm::Create({kM, 1}, 1);
  ASSERT_TRUE(alg.ok());
  Rng rng(9);

  auto run_round = [&](int unique_reals) -> uint64_t {
    uint64_t fakes = 0;
    for (int r = 0; r < unique_reals; ++r) {
      const uint64_t start = q.Sample(&rng);
      const auto batch = (*alg)->Process(RangeQuery{start, start}, &rng);
      EXPECT_TRUE(batch.ok());
      for (const auto& fq : *batch) {
        if (fq.kind == QueryKind::kFake) ++fakes;
      }
    }
    return fakes;
  };

  const uint64_t early = run_round(10);
  for (int warm = 0; warm < 30; ++warm) run_round(10);
  const uint64_t late = run_round(10);
  EXPECT_LT(late, early) << "adaptive algorithm failed to converge";
}

TEST(AdaptiveQueryTest, PeriodicVariantRuns) {
  auto alg = AdaptiveQueryAlgorithm::Create({24, 2}, 6);
  ASSERT_TRUE(alg.ok());
  Rng rng(10);
  const auto batch = (*alg)->Process(RangeQuery{3, 8}, &rng);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*alg)->buffer().size(), 3u);  // pieces {3, 5, 7}
}


TEST(CrossOverTest, FreezesOnceEstimateStabilizes) {
  constexpr uint64_t kM = 40;
  const dist::Distribution q = Skewed(kM);
  CrossOverPolicy policy;
  policy.tv_threshold = 0.08;
  policy.min_observations = 128;
  policy.check_interval = 64;
  auto alg = AdaptiveQueryAlgorithm::Create({kM, 1}, 1, policy);
  ASSERT_TRUE(alg.ok());
  Rng rng(21);
  for (int i = 0; i < 2000 && !(*alg)->frozen(); ++i) {
    const uint64_t start = q.Sample(&rng);
    ASSERT_TRUE((*alg)->Process(RangeQuery{start, start}, &rng).ok());
  }
  EXPECT_TRUE((*alg)->frozen());
  // Frozen: the buffer stops growing but queries still work.
  const uint64_t buffered = (*alg)->buffer().size();
  ASSERT_TRUE((*alg)->Process(RangeQuery{3, 3}, &rng).ok());
  EXPECT_EQ((*alg)->buffer().size(), buffered);
}

TEST(CrossOverTest, DisabledPolicyNeverFreezes) {
  constexpr uint64_t kM = 20;
  auto alg = AdaptiveQueryAlgorithm::Create({kM, 1}, 1);
  ASSERT_TRUE(alg.ok());
  Rng rng(22);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*alg)->Process(RangeQuery{5, 5}, &rng).ok());
  }
  EXPECT_FALSE((*alg)->frozen());
}

TEST(CrossOverTest, FrozenPlanStillMixesRealAndFake) {
  constexpr uint64_t kM = 30;
  const dist::Distribution q = dist::Distribution::PointMass(kM, 4);
  CrossOverPolicy policy;
  policy.tv_threshold = 0.5;  // freeze quickly
  policy.min_observations = 64;
  policy.check_interval = 32;
  auto alg = AdaptiveQueryAlgorithm::Create({kM, 1}, 1, policy);
  ASSERT_TRUE(alg.ok());
  Rng rng(23);
  uint64_t fakes_after_freeze = 0;
  for (int i = 0; i < 600; ++i) {
    auto batch = (*alg)->Process(RangeQuery{4, 4}, &rng);
    ASSERT_TRUE(batch.ok());
    if ((*alg)->frozen()) {
      for (const auto& fq : *batch) {
        if (fq.kind == QueryKind::kFake) ++fakes_after_freeze;
      }
    }
  }
  ASSERT_TRUE((*alg)->frozen());
  // Point mass still demands ~M-1 fakes per real even when frozen.
  EXPECT_GT(fakes_after_freeze, 1000u);
}

TEST(CrossOverTest, CreateValidatesPolicy) {
  CrossOverPolicy policy;
  policy.tv_threshold = 0.1;
  policy.check_interval = 0;
  EXPECT_FALSE(AdaptiveQueryAlgorithm::Create({30, 1}, 1, policy).ok());
}

}  // namespace
}  // namespace mope::query
