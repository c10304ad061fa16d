/// Figure 3 — "The periodic query distribution after we add the fake
/// queries."
///
/// Same toy workload as Figures 1-2, processed by QueryP with period
/// rho = 20: the perceived (shifted) start distribution becomes rho-periodic
/// — cheaper than QueryU, while the phase attack can recover only
/// j mod rho (the log(rho) least-significant bits of the offset).

#include <cstdio>

#include "attack/gap_attack.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "query/algorithms.h"

namespace mope {
namespace {

void Run(bench::JsonReport* report) {
  constexpr uint64_t kDomain = 100;
  constexpr uint64_t kK = 10;
  constexpr uint64_t kPeriod = 20;
  constexpr uint64_t kOffset = 47;
  constexpr int kUserQueries = 6000;
  Rng rng(0xF163);

  std::vector<double> w(kDomain, 0.0);
  for (uint64_t s = 0; s + kK <= kDomain; ++s) {
    w[s] = 1.0 / static_cast<double>(1 + s % 17);
  }
  auto q_starts = dist::Distribution::FromWeights(std::move(w));
  MOPE_CHECK(q_starts.ok(), "weights");

  auto query_u =
      query::PeriodicQueryAlgorithm::Create({kDomain, kK}, *q_starts, 1);
  auto query_p =
      query::PeriodicQueryAlgorithm::Create({kDomain, kK}, *q_starts, kPeriod);
  MOPE_CHECK(query_u.ok() && query_p.ok(), "algorithms");
  std::printf("\nE[fakes per real]  QueryU: %.2f   QueryP[%llu]: %.2f\n",
              (*query_u)->plan().expected_fakes_per_real(),
              static_cast<unsigned long long>(kPeriod),
              (*query_p)->plan().expected_fakes_per_real());

  Histogram observed(kDomain);
  for (int i = 0; i < kUserQueries; ++i) {
    uint64_t start = q_starts->Sample(&rng);
    if (start + kK > kDomain) start = kDomain - kK;
    auto batch = (*query_p)->Process({start, start + kK - 1}, &rng);
    MOPE_CHECK(batch.ok(), "process");
    for (const auto& fq : *batch) {
      observed.Add((fq.start + kOffset) % kDomain);
    }
  }

  std::printf("\nperceived (shifted) start histogram under QueryP[%llu]:\n\n",
              static_cast<unsigned long long>(kPeriod));
  std::printf("%s\n", observed.ToAscii(50, 25).c_str());

  // Periodicity check: correlate bins one period apart.
  double max_period_gap = 0.0;
  const auto probs = observed.Normalized();
  for (uint64_t i = 0; i + kPeriod < kDomain; ++i) {
    max_period_gap =
        std::max(max_period_gap, std::abs(probs[i] - probs[i + kPeriod]));
  }
  std::printf("max |p(i) - p(i+rho)|  : %.4f (0 = perfectly periodic)\n",
              max_period_gap);

  const auto phase =
      attack::EstimatePhase(observed, (*query_p)->plan().perceived, kPeriod);
  std::printf("phase attack           : recovered j mod rho = %s\n",
              phase.ok() ? std::to_string(phase.value()).c_str() : "none");
  std::printf("ground truth           : j = %llu, j mod rho = %llu\n",
              static_cast<unsigned long long>(kOffset),
              static_cast<unsigned long long>(kOffset % kPeriod));
  std::printf(
      "-> the adversary learns the low bits (j mod %llu = %llu) but the\n"
      "   %llu candidate high parts remain equally likely.\n",
      static_cast<unsigned long long>(kPeriod),
      static_cast<unsigned long long>(kOffset % kPeriod),
      static_cast<unsigned long long>(kDomain / kPeriod));
  report->BeginRow()
      .Field("fakes_per_real_query_u",
             (*query_u)->plan().expected_fakes_per_real())
      .Field("fakes_per_real_query_p",
             (*query_p)->plan().expected_fakes_per_real())
      .Field("period", kPeriod)
      .Field("max_period_gap", max_period_gap)
      .Field("phase_recovered",
             phase.ok() ? std::to_string(phase.value()) : "none")
      .Field("offset_mod_period", kOffset % kPeriod)
      .Field("candidate_high_parts", kDomain / kPeriod);
}

}  // namespace
}  // namespace mope

int main() {
  mope::bench::PrintHeader("Figure 3",
                           "QueryP[20] — periodic perceived distribution");
  mope::bench::JsonReport report("fig03_periodic_mix");
  mope::Run(&report);
  report.Write();
  return 0;
}
