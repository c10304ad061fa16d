/// Self-tests of the benchmark's measurement rules. Built and run by
/// `python3 perfbench/run.py --selftest`; exits non-zero on the first
/// failed check.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/registry.h"
#include "workloads.h"

namespace mope::perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
  ++failures;
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileNeedsTenSamplesBeyond() {
  // Nearest rank: p90 of 1..100 is 90, with 91..100 (ten samples) beyond.
  CHECK(Percentile(Iota(100), 0.9, 10) == 90.0);
  // 99 samples leave only nine beyond the p90 rank: not reported.
  CHECK(!Percentile(Iota(99), 0.9, 10).has_value());
  // p99 needs a thousand samples.
  CHECK(!Percentile(Iota(999), 0.99, 10).has_value());
  CHECK(Percentile(Iota(1000), 0.99, 10) == 990.0);
  CHECK(Median(Iota(5)) == 3.0);
  CHECK(!Percentile({}, 0.5, 0).has_value());
}

void TestPhaseStatsPoolEveryOp() {
  // 100 ops in 2 s: 50 ops/s; nearest-rank median 50 and p90 90.
  const PhaseStats stats = Summarize(Iota(100), 2.0);
  CHECK(stats.ops_per_s == 50.0 && stats.p50_ms == 50.0 &&
        stats.p90_ms == 90.0);
}

void TestSelfTimeSubtractsDirectChildren() {
  // op [0,100] > encrypt [10,40] > inner [15,25]; op > decrypt [50,90];
  // a second encrypt root [200,210].
  std::vector<obs::Span> spans = {
      {"op", 0, 0, 100},       {"encrypt", 1, 10, 40},
      {"inner", 2, 15, 25},    {"decrypt", 1, 50, 90},
      {"encrypt", 0, 200, 210}, {"open", 0, 300, 0},
  };
  const auto self = SpanSelfNanos(spans);
  CHECK(self.at("op") == 100 - 30 - 40);
  CHECK(self.at("encrypt") == (30 - 10) + 10);
  CHECK(self.at("inner") == 10);
  CHECK(self.at("decrypt") == 40);
  CHECK(self.at("open") == 0);
}

void TestPerOpCounterDeltas() {
  obs::MetricsRegistry registry;
  registry.GetCounter("a")->Increment(5);
  CounterTotals totals;
  for (int op = 1; op <= 3; ++op) {
    const Snapshot before = registry.Snapshot();
    registry.GetCounter("a")->Increment(op);
    // A counter created mid-run counts from zero.
    registry.GetCounter("b")->Increment(2);
    registry.GetHistogram("h")->Observe(100);
    totals.Add(CounterDelta(before, registry.Snapshot()));
  }
  CHECK(totals.ops() == 3);
  CHECK(totals.Total("a") == 6);
  CHECK(totals.PerOp("a") == 2.0);
  CHECK(totals.Total("b") == 6);
  CHECK(totals.Total("h.count") == 3 && totals.Total("h.sum") == 300);
  CHECK(totals.Total("missing") == 0);
}

void TestDigestIgnoresOrder() {
  const engine::Row r1 = {int64_t{1}, 2.5, std::string("x")};
  const engine::Row r2 = {int64_t{2}, 2.5, std::string("x")};
  Digest forward, backward, other;
  forward.Add(RowHash(r1));
  forward.Add(RowHash(r2));
  backward.Add(RowHash(r2));
  backward.Add(RowHash(r1));
  other.Add(RowHash(r1));
  other.Add(RowHash(r1));
  CHECK(forward == backward);
  CHECK(!(forward == other));
  // Same bits, different types: int64 1 and the string "\x01" differ.
  CHECK(RowHash({int64_t{1}}) != RowHash({std::string("\x01")}));
}

void TestCipherIndexMatchesTheEngine() {
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "t", engine::Schema({{"k", engine::ValueType::kInt}}));
  CHECK(table.ok());
  const int64_t keys[] = {5, 1, 9, 5, 0, 7};
  for (const int64_t key : keys) CHECK((*table)->Insert({key}).ok());
  CHECK((*table)->CreateIndex("k").ok());
  const CipherIndex index(server, "t", "k");
  const std::vector<std::vector<ModularInterval>> batches = {
      {ModularInterval::FromEndpoints(4, 7, 10)},
      {ModularInterval::FromEndpoints(8, 1, 10)},  // wraps: 8..9, 0..1
      {ModularInterval::FromEndpoints(2, 3, 10)},  // empty
  };
  for (const auto& batch : batches) {
    auto rows = server.ExecuteRangeBatchWithIds("t", "k", batch);
    CHECK(rows.ok());
    Digest engine_answer;
    for (const auto& [rid, row] : *rows) engine_answer.Add(rid);
    CHECK(index.Expected(batch) == engine_answer);
  }
}

void TestEpochOpsAreFixedByArguments() {
  CHECK(EpochOps(25, 9.0, 20) == 45);
  CHECK(EpochOps(1, 9.0, 20) == 20);
  CHECK(SubSeed(1, 2) == SubSeed(1, 2));
  CHECK(SubSeed(1, 2) != SubSeed(2, 2));
  CHECK(SubSeed(1, 2) != SubSeed(1, 3));
}

}  // namespace
}  // namespace mope::perfbench

int main() {
  using namespace mope::perfbench;
  TestPercentileNeedsTenSamplesBeyond();
  TestPhaseStatsPoolEveryOp();
  TestSelfTimeSubtractsDirectChildren();
  TestPerOpCounterDeltas();
  TestDigestIgnoresOrder();
  TestCipherIndexMatchesTheEngine();
  TestEpochOpsAreFixedByArguments();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
