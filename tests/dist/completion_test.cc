#include "dist/completion.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace mope::dist {
namespace {

/// Checks the defining identity of a mixing plan:
/// alpha * q + (1 - alpha) * completion == perceived (pointwise).
void ExpectMixIdentity(const Distribution& q, const MixPlan& plan,
                       double tol = 1e-9) {
  ASSERT_EQ(plan.completion.size(), q.size());
  ASSERT_EQ(plan.perceived.size(), q.size());
  for (uint64_t i = 0; i < q.size(); ++i) {
    const double mixed =
        plan.alpha * q.prob(i) + (1.0 - plan.alpha) * plan.completion.prob(i);
    EXPECT_NEAR(mixed, plan.perceived.prob(i), tol) << "i=" << i;
  }
}

Distribution SkewedDistribution(uint64_t m) {
  std::vector<double> w(m);
  for (uint64_t i = 0; i < m; ++i) {
    w[i] = 1.0 / static_cast<double>(1 + i * i);
  }
  auto d = Distribution::FromWeights(std::move(w));
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

TEST(UniformCompletionTest, MixesToUniform) {
  const Distribution q = SkewedDistribution(64);
  auto plan = MakePeriodicPlan(q, 1);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->alpha, 0.0);
  EXPECT_LE(plan->alpha, 1.0);
  ExpectMixIdentity(q, *plan);
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(plan->perceived.prob(i), 1.0 / 64.0, 1e-12);
  }
}

TEST(UniformCompletionTest, AlphaIsOneOverMuM) {
  const Distribution q = SkewedDistribution(100);
  auto plan = MakePeriodicPlan(q, 1);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->alpha, 1.0 / (q.max_prob() * 100.0), 1e-12);
}

TEST(UniformCompletionTest, UniformInputNeedsNoFakes) {
  auto plan = MakePeriodicPlan(Distribution::Uniform(32), 1);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->alpha, 1.0);
  EXPECT_DOUBLE_EQ(plan->expected_fakes_per_real(), 0.0);
}

TEST(UniformCompletionTest, PointMassIsWorstCase) {
  // µ = 1 -> alpha = 1/M -> M-1 expected fakes per real query.
  auto plan = MakePeriodicPlan(Distribution::PointMass(50, 7), 1);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->alpha, 1.0 / 50.0, 1e-12);
  EXPECT_NEAR(plan->expected_fakes_per_real(), 49.0, 1e-9);
  // The completion never samples the point itself.
  EXPECT_NEAR(plan->completion.prob(7), 0.0, 1e-12);
  ExpectMixIdentity(Distribution::PointMass(50, 7), *plan);
}

TEST(UniformCompletionTest, CompletionWeightsMatchPaperFormula) {
  const Distribution q = SkewedDistribution(16);
  auto plan = MakePeriodicPlan(q, 1);
  ASSERT_TRUE(plan.ok());
  const double mu = q.max_prob();
  const double denom = mu * 16.0 - 1.0;
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(plan->completion.prob(i), (mu - q.prob(i)) / denom, 1e-9);
  }
}

TEST(UniformCompletionTest, PeriodOneIsTheSection31PlanExactly) {
  // QueryU is QueryP[1]: alpha = 1/(µM), Q̄ proportional to µ - Q(i) and the
  // target U, to the bit, since the server sees streams sampled from them.
  constexpr uint64_t kM = 60;
  const Distribution q = SkewedDistribution(kM);
  auto plan = MakePeriodicPlan(q, 1);
  ASSERT_TRUE(plan.ok());
  const double mu = q.max_prob();
  EXPECT_EQ(plan->alpha, 1.0 / (mu * static_cast<double>(kM)));
  std::vector<double> weights(kM);
  for (uint64_t i = 0; i < kM; ++i) weights[i] = mu - q.prob(i);
  auto completion = Distribution::FromWeights(std::move(weights));
  ASSERT_TRUE(completion.ok());
  EXPECT_EQ(plan->completion.probs(), completion->probs());
  EXPECT_EQ(plan->perceived.probs(), Distribution::Uniform(kM).probs());
}

TEST(PeriodicCompletionTest, MixesToPeriodic) {
  const Distribution q = SkewedDistribution(64);
  for (uint64_t period : {1ULL, 2ULL, 4ULL, 8ULL, 16ULL, 32ULL, 64ULL}) {
    auto plan = MakePeriodicPlan(q, period);
    ASSERT_TRUE(plan.ok()) << period;
    ExpectMixIdentity(q, *plan);
    // Perceived distribution must be exactly ρ-periodic.
    for (uint64_t i = 0; i + period < 64; ++i) {
      EXPECT_NEAR(plan->perceived.prob(i), plan->perceived.prob(i + period),
                  1e-12)
          << "period=" << period << " i=" << i;
    }
  }
}

TEST(PeriodicCompletionTest, PeriodMForwardsEverything) {
  const Distribution q = SkewedDistribution(32);
  auto plan = MakePeriodicPlan(q, 32);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->alpha, 1.0);
  EXPECT_DOUBLE_EQ(plan->expected_fakes_per_real(), 0.0);
}

TEST(PeriodicCompletionTest, AlphaNeverBelowPeriodOneAlpha) {
  // η_Q <= µ_Q, so QueryP[ρ] is never more expensive than QueryU = QueryP[1].
  const Distribution q = SkewedDistribution(60);
  auto uniform = MakePeriodicPlan(q, 1);
  ASSERT_TRUE(uniform.ok());
  for (uint64_t period : {2ULL, 3ULL, 5ULL, 6ULL, 10ULL, 15ULL, 30ULL}) {
    auto plan = MakePeriodicPlan(q, period);
    ASSERT_TRUE(plan.ok());
    EXPECT_GE(plan->alpha + 1e-12, uniform->alpha) << period;
  }
}

TEST(PeriodicCompletionTest, EtaBoundedByOneOverPeriod) {
  // η_Q = (1/ρ) Σ_j max_{i in S_j} Q(i) <= (1/ρ) Σ_j Σ_{i in S_j} Q(i) = 1/ρ,
  // which is what makes QueryP's E[fakes] = ηM - 1 <= M/ρ - 1 sublinear.
  const Distribution q = SkewedDistribution(64);
  for (uint64_t period : {2ULL, 4ULL, 8ULL, 16ULL}) {
    auto eta = AverageClassMaximum(q, period);
    ASSERT_TRUE(eta.ok());
    EXPECT_LE(eta.value(), 1.0 / static_cast<double>(period) + 1e-12);
    auto plan = MakePeriodicPlan(q, period);
    ASSERT_TRUE(plan.ok());
    EXPECT_LE(plan->expected_fakes_per_real(),
              MakePeriodicPlan(q, 1)->expected_fakes_per_real() + 1e-9);
  }
}

TEST(PeriodicCompletionTest, RejectsNonDivisorPeriods) {
  const Distribution q = SkewedDistribution(30);
  EXPECT_FALSE(MakePeriodicPlan(q, 7).ok());
  EXPECT_FALSE(MakePeriodicPlan(q, 0).ok());
  EXPECT_FALSE(MakePeriodicPlan(q, 31).ok());
  EXPECT_TRUE(MakePeriodicPlan(q, 6).ok());
}

TEST(PeriodicCompletionTest, PeriodicInputNeedsNoFakes) {
  // A distribution that is already 4-periodic on domain 16.
  std::vector<double> w(16);
  for (uint64_t i = 0; i < 16; ++i) w[i] = 1.0 + static_cast<double>(i % 4);
  auto q = Distribution::FromWeights(std::move(w));
  ASSERT_TRUE(q.ok());
  auto plan = MakePeriodicPlan(*q, 4);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->alpha, 1.0, 1e-9);
}

TEST(CompletionSamplingTest, EmpiricalMixLooksLikeTarget) {
  // Simulate the coin + completion procedure and check the realized start
  // distribution matches the perceived one in total variation.
  const Distribution q = SkewedDistribution(32);
  auto plan = MakePeriodicPlan(q, 1);
  ASSERT_TRUE(plan.ok());
  Rng rng(77);
  Histogram h(32);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    if (rng.Bernoulli(plan->alpha)) {
      h.Add(q.Sample(&rng));
    } else {
      h.Add(plan->completion.Sample(&rng));
    }
  }
  auto empirical = Distribution::FromHistogram(h);
  ASSERT_TRUE(empirical.ok());
  EXPECT_LT(empirical->TotalVariationDistance(plan->perceived), 0.02);
}

}  // namespace
}  // namespace mope::dist
