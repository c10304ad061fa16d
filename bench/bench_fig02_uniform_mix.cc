/// Figure 2 — "The query distribution after we add the fake queries. The
/// real queries are obfuscated and the displacement gap is hidden."
///
/// Runs the same toy workload as Figure 1 through QueryU and shows the
/// perceived (shifted) start distribution becoming uniform: the histogram
/// flattens, the chi-square statistic is consistent with uniform, and the
/// gap attack finds nothing to orient by.

#include <cstdio>

#include "attack/gap_attack.h"
#include "bench/bench_util.h"
#include "common/math_util.h"
#include "common/random.h"
#include "query/algorithms.h"
#include "workload/generator.h"

namespace mope {
namespace {

void Run(bench::JsonReport* report) {
  constexpr uint64_t kDomain = 101;
  constexpr uint64_t kK = 10;
  constexpr uint64_t kOffset = 20;
  constexpr int kUserQueries = 4000;
  Rng rng(0xF162);

  // Skewed user query-start distribution on valid starts.
  std::vector<double> w(kDomain, 0.0);
  for (uint64_t s = 0; s + kK <= kDomain; ++s) {
    w[s] = 1.0 / static_cast<double>(1 + s % 17);
  }
  auto q_starts = dist::Distribution::FromWeights(std::move(w));
  MOPE_CHECK(q_starts.ok(), "weights");

  // QueryU is QueryP[1].
  auto algorithm =
      query::PeriodicQueryAlgorithm::Create({kDomain, kK}, *q_starts, 1);
  MOPE_CHECK(algorithm.ok(), "QueryU");
  std::printf("\ncoin bias alpha        : %.4f\n", (*algorithm)->plan().alpha);
  std::printf("E[fakes per real query]: %.2f\n",
              (*algorithm)->plan().expected_fakes_per_real());

  attack::GapAttack attack(kDomain);
  uint64_t total_queries = 0;
  for (int i = 0; i < kUserQueries; ++i) {
    uint64_t start = q_starts->Sample(&rng);
    if (start + kK > kDomain) start = kDomain - kK;
    auto batch = (*algorithm)->Process({start, start + kK - 1}, &rng);
    MOPE_CHECK(batch.ok(), "process");
    for (const auto& fq : *batch) {
      attack.ObserveStart((fq.start + kOffset) % kDomain);
      ++total_queries;
    }
  }

  std::printf(
      "\nperceived (shifted) start histogram after mixing "
      "(%llu queries total):\n\n",
      static_cast<unsigned long long>(total_queries));
  std::printf("%s\n", attack.observed().ToAscii(50, 21).c_str());

  const double chi2 = attack.observed().ChiSquareVsUniform();
  const double crit = ChiSquareCriticalValue(kDomain - 1, 0.01);
  std::printf("chi-square vs uniform  : %.1f (crit @ 0.01 = %.1f) -> %s\n",
              chi2, crit,
              chi2 < crit ? "consistent with uniform" : "NOT uniform");
  std::printf("longest uncovered arc  : %llu\n",
              static_cast<unsigned long long>(attack.LongestGap()));
  const auto est = attack.EstimateOffset();
  std::printf("gap attack             : %s (true offset %llu)\n",
              est.ok() ? ("recovered " + std::to_string(est.value())).c_str()
                       : "no gap — attack defeated",
              static_cast<unsigned long long>(kOffset));
  report->BeginRow()
      .Field("alpha", (*algorithm)->plan().alpha)
      .Field("expected_fakes_per_real",
             (*algorithm)->plan().expected_fakes_per_real())
      .Field("total_queries", total_queries)
      .Field("chi_square", chi2)
      .Field("chi_square_crit", crit)
      .Field("uniform", chi2 < crit ? 1 : 0)
      .Field("longest_gap", static_cast<uint64_t>(attack.LongestGap()))
      .Field("attack_recovered",
             est.ok() ? std::to_string(est.value()) : "none");
}

}  // namespace
}  // namespace mope

int main() {
  mope::bench::PrintHeader("Figure 2",
                           "QueryU hides the displacement gap");
  mope::bench::JsonReport report("fig02_uniform_mix");
  mope::Run(&report);
  report.Write();
  return 0;
}
