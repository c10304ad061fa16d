/// Figure 16 — "The number of fake queries executed for [each] round of 10
/// real queries in SanFran10 (16a) and Q14 of TPC-H (16b). The
/// AdaptiveQueryU converges really fast, especially for Q14."
///
/// AdaptiveQueryU learns the query distribution online from a buffer.
/// Early rounds are dominated by fakes (after one observation the estimate
/// is a point mass, so alpha = 1/M); as the buffer fills, the per-round fake
/// count converges to the non-adaptive QueryU rate E[fakes] = µ_Q·M - 1.

#include <cstdio>

#include "bench/tpch_util.h"
#include "workload/datasets.h"
#include "workload/generator.h"

namespace mope {
namespace {

void RunSeries(const char* name, uint64_t domain, uint64_t k,
               const std::function<query::RangeQuery(mope::BitSource*)>& sample,
               int rounds, int print_every, double reference_fakes,
               Rng* rng, bench::JsonReport* report) {
  auto algorithm = query::AdaptiveQueryAlgorithm::Create({domain, k}, 1);
  MOPE_CHECK(algorithm.ok(), "adaptive");

  std::printf("\n%s (M = %llu, k = %llu); QueryU steady state ~%.0f fakes "
              "per 10 queries:\n",
              name, static_cast<unsigned long long>(domain),
              static_cast<unsigned long long>(k), 10.0 * reference_fakes);
  bench::TablePrinter table({"round", "fakes/10 real", "buffer size"});
  for (int round = 0; round < rounds; ++round) {
    uint64_t fakes = 0;
    for (int i = 0; i < 10; ++i) {
      auto batch = (*algorithm)->Process(sample(rng), rng);
      MOPE_CHECK(batch.ok(), "process");
      for (const auto& fq : *batch) {
        if (fq.kind == query::QueryKind::kFake) ++fakes;
      }
    }
    if (round % print_every == 0 || round == rounds - 1) {
      table.Row({std::to_string(round), std::to_string(fakes),
                 std::to_string((*algorithm)->buffer().size())});
      report->BeginRow()
          .Field("series", name)
          .Field("round", round)
          .Field("fakes_per_10_real", fakes)
          .Field("buffer_size",
                 static_cast<uint64_t>((*algorithm)->buffer().size()))
          .Field("steady_state_fakes_per_10", 10.0 * reference_fakes);
    }
  }
}

void Run(bench::JsonReport* report) {
  Rng rng(0xF1616);

  // 16a: SanFran with sigma = 10.
  const dist::Distribution sanfran =
      workload::MakeDataset(workload::DatasetKind::kSanFran);
  auto starts =
      workload::BuildStartDistribution(sanfran, {10.0}, 10, 20000, &rng);
  auto plan = dist::MakePeriodicPlan(starts, 1);
  MOPE_CHECK(plan.ok(), "plan");
  RunSeries(
      "SanFran10", sanfran.size(), 10,
      [&sanfran](mope::BitSource* r) {
        return workload::GenerateQuery(sanfran, {10.0}, r);
      },
      100, 10, plan->expected_fakes_per_real(), &rng, report);

  // 16b: TPC-H Q14 (month ranges over ~84 distinct start months).
  auto q14 = [](mope::BitSource* r) { return workload::SampleQ14(r).shipdate; };
  const dist::Distribution q14_starts =
      bench::TemplateStarts(q14, 30, 20000, &rng);
  auto q14_plan = dist::MakePeriodicPlan(q14_starts, 1);
  MOPE_CHECK(q14_plan.ok(), "plan");
  RunSeries("TPC-H Q14", workload::kTpchDateDomain, 30, q14, 1000, 100,
            q14_plan->expected_fakes_per_real(), &rng, report);
}

}  // namespace
}  // namespace mope

int main() {
  mope::bench::PrintHeader("Figure 16",
                           "AdaptiveQueryU convergence (fakes per 10 reals)");
  mope::bench::JsonReport report("fig16_adaptive");
  mope::Run(&report);
  report.Write();
  return 0;
}
