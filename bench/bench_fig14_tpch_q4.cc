/// Figure 14 — "The Bandwidth cost when trying to hide the query pattern
/// for Q4. A single query takes around 4 seconds to execute, so we can
/// predict the actual running time."
///
/// Q4 ranges over 3 months of o_orderdate (k = 90). Like the paper, this
/// bench skips execution and reports the Requests overhead factor per
/// period — multiply by the single-query runtime to predict wall-clock.

#include <cstdio>

#include "bench/tpch_util.h"

namespace mope {
namespace {

void Run(bench::JsonReport* report) {
  constexpr uint64_t kK = 90;
  constexpr uint64_t kQueries = 2000;
  Rng rng(0xF1614);

  const auto sample = [](mope::BitSource* r) {
    return workload::SampleQ4(r).orderdate;
  };
  const dist::Distribution starts =
      bench::TemplateStarts(sample, kK, 20000, &rng);

  // Record counts: orders per o_orderdate day.
  workload::TpchConfig config;
  config.scale_factor = bench::kBenchScaleFactor;
  const workload::TpchData data = workload::GenerateTpch(config);
  Histogram order_days(workload::kTpchDateDomain);
  for (const auto& row : data.orders) {
    order_days.Add(static_cast<uint64_t>(
        std::get<int64_t>(row[workload::tpch_cols::kOrderDate])));
  }
  const query::RecordCounter counter =
      query::RecordCounter::FromHistogram(order_days);

  const uint64_t periods[] = {0,
                              workload::kPeriod15Days,
                              workload::kPeriod1Month,
                              workload::kPeriod2Months,
                              workload::kPeriod3Months,
                              workload::kPeriod6Months,
                              workload::kPeriod1Year};

  bench::TablePrinter table(
      {"period", "Requests", "Bandwidth", "pred. runtime"});
  for (uint64_t period : periods) {
    // Rows label QueryU as "n/a" (period 0); it runs as QueryP[1].
    auto algorithm = query::PeriodicQueryAlgorithm::Create(
        {workload::kTpchDateDomain, kK}, starts, period == 0 ? 1 : period);
    MOPE_CHECK(algorithm.ok(), "query algorithm");
    query::CostAccumulator cost(&counter, kK);
    for (uint64_t i = 0; i < kQueries; ++i) {
      const query::RangeQuery q = sample(&rng);
      auto batch = (*algorithm)->Process(q, &rng);
      MOPE_CHECK(batch.ok(), "process");
      cost.AddBatch(q, *batch);
    }
    // The paper's prediction: one plaintext Q4 ~ 4 seconds, so predicted
    // time per query ~ factor * 4s.
    const double predicted_s = cost.Requests() * 4.0;
    table.Row({bench::PeriodLabel(period), bench::Fmt(cost.Requests()),
               bench::Fmt(cost.Bandwidth()),
               bench::Fmt(predicted_s, 1) + "s"});
    report->BeginRow()
        .Field("period", bench::PeriodLabel(period))
        .Field("requests", cost.Requests())
        .Field("bandwidth", cost.Bandwidth())
        .Field("predicted_runtime_s", predicted_s);
  }
  std::printf(
      "\n(Requests is the factor over running each Q4 once; the paper "
      "reports\n this factor because a single Q4 takes ~4s on its testbed.)\n");
}

}  // namespace
}  // namespace mope

int main() {
  mope::bench::PrintHeader("Figure 14", "TPC-H Q4 request overhead vs period");
  mope::bench::JsonReport report("fig14_tpch_q4");
  mope::Run(&report);
  report.Write();
  return 0;
}
