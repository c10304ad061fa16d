#include "workload/datasets.h"

#include <gtest/gtest.h>

#include <cmath>

#include <numeric>

#include "common/random.h"
#include "dist/completion.h"

namespace mope::workload {
namespace {

class DatasetSweepTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(DatasetSweepTest, IsValidDistributionOnDeclaredDomain) {
  const DatasetKind kind = GetParam();
  const dist::Distribution d = MakeDataset(kind);
  EXPECT_EQ(d.size(), DatasetDomain(kind));
  double sum = 0.0;
  for (uint64_t i = 0; i < d.size(); ++i) {
    EXPECT_GE(d.prob(i), 0.0);
    sum += d.prob(i);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(DatasetSweepTest, DeterministicCountsSumExactly) {
  const dist::Distribution d = MakeDataset(GetParam());
  for (uint64_t total : {100ULL, 12345ULL, 100000ULL}) {
    const auto counts = DeterministicCounts(d, total);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), uint64_t{0}),
              total);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetSweepTest,
                         ::testing::Values(DatasetKind::kUniform,
                                           DatasetKind::kZipf,
                                           DatasetKind::kAdult,
                                           DatasetKind::kCovertype,
                                           DatasetKind::kSanFran));

TEST(DatasetsTest, DomainsMatchThePaper) {
  EXPECT_EQ(DatasetDomain(DatasetKind::kUniform), 10000u);
  EXPECT_EQ(DatasetDomain(DatasetKind::kZipf), 10000u);
  EXPECT_EQ(DatasetDomain(DatasetKind::kAdult), 74u);       // ages 17..90
  EXPECT_EQ(DatasetDomain(DatasetKind::kCovertype), 2000u); // 1859..3858
  EXPECT_EQ(DatasetDomain(DatasetKind::kSanFran), 10000u);
}

TEST(DatasetsTest, NamesAreStable) {
  EXPECT_STREQ(DatasetName(DatasetKind::kAdult), "adult");
  EXPECT_STREQ(DatasetName(DatasetKind::kSanFran), "sanfrancisco");
}

TEST(DatasetsTest, UniformIsFlatZipfIsNot) {
  const auto uniform = MakeDataset(DatasetKind::kUniform);
  EXPECT_NEAR(uniform.max_prob(), 1.0 / 10000.0, 1e-12);
  const auto zipf = MakeDataset(DatasetKind::kZipf);
  EXPECT_GT(zipf.max_prob(), 100.0 * zipf.prob(9999));
  EXPECT_EQ(zipf.argmax(), 0u);
}

TEST(DatasetsTest, AdultIsRightSkewedWorkingAgeBulge) {
  const auto adult = MakeDataset(DatasetKind::kAdult);
  // Mode in the 20s-40s (index = age - 17), tail thin at 90.
  const uint64_t mode_age = adult.argmax() + 17;
  EXPECT_GE(mode_age, 22u);
  EXPECT_LE(mode_age, 45u);
  EXPECT_LT(adult.prob(90 - 17), adult.max_prob() / 5.0);
}

TEST(DatasetsTest, CovertypeIsMultimodalAroundTheMainBand) {
  const auto cov = MakeDataset(DatasetKind::kCovertype);
  const uint64_t mode_elev = cov.argmax() + 1859;
  EXPECT_GE(mode_elev, 2800u);
  EXPECT_LE(mode_elev, 3100u);
}

TEST(DatasetsTest, SanFranHasStrongClusters) {
  // Clusterable skew is what makes QueryP effective on SanFran (Fig. 7):
  // the completion cost collapses once the period aligns with clusters.
  const auto sf = MakeDataset(DatasetKind::kSanFran);
  EXPECT_GT(sf.max_prob(), 20.0 / 10000.0);
  // QueryP with a modest period must beat QueryU substantially.
  auto uniform_plan = dist::MakePeriodicPlan(sf, 1);
  auto periodic_plan = dist::MakePeriodicPlan(sf, 100);
  ASSERT_TRUE(uniform_plan.ok() && periodic_plan.ok());
  EXPECT_LT(periodic_plan->expected_fakes_per_real(),
            uniform_plan->expected_fakes_per_real() / 3.0);
}

TEST(DatasetsTest, SampleCountsApproximateDeterministicCounts) {
  const auto adult = MakeDataset(DatasetKind::kAdult);
  Rng rng(5);
  const auto sampled = SampleCounts(adult, 50000, &rng);
  const auto expected = DeterministicCounts(adult, 50000);
  ASSERT_EQ(sampled.size(), expected.size());
  uint64_t total = 0;
  for (size_t i = 0; i < sampled.size(); ++i) {
    total += sampled[i];
    const double e = static_cast<double>(expected[i]);
    EXPECT_NEAR(static_cast<double>(sampled[i]), e,
                5.0 * std::sqrt(e + 25.0))
        << i;
  }
  EXPECT_EQ(total, 50000u);
}

}  // namespace
}  // namespace mope::workload
