#ifndef MOPE_PERFBENCH_HARNESS_H_
#define MOPE_PERFBENCH_HARNESS_H_

/// \file harness.h
/// Measurement helpers shared by the three workloads: the percentile rule,
/// span self time, registry counter deltas, order-independent answer
/// digests, peak RSS and the one-line JSON result.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/table.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace mope::perfbench {

inline uint64_t NowNs() { return obs::SystemClock()->NowNanos(); }
inline double NsToMs(double ns) { return ns / 1e6; }
inline double NsToS(double ns) { return ns / 1e9; }

/// Nearest-rank q-quantile of `samples`, or nullopt when fewer than
/// `min_beyond` samples lie strictly above the chosen rank. A tail
/// percentile is only worth reporting when at least ten samples lie beyond
/// it, so p90 needs 100 samples and p99 needs 1000.
std::optional<double> Percentile(std::vector<double> samples, double q,
                                 size_t min_beyond);

/// Middle value (nearest rank); 0 for an empty input.
double Median(std::vector<double> samples);

/// Self time per span name, summed over all spans of that name: each span's
/// duration minus the durations of its direct children. Open spans count
/// as zero.
std::map<std::string, uint64_t> SpanSelfNanos(
    const std::vector<obs::Span>& spans);

/// Throughput and latency of a timed phase.
struct PhaseStats {
  double ops_per_s = 0;  ///< Ops over the phase's wall time.
  double p50_ms = 0;
  double p90_ms = 0;
};

/// Stats of a timed phase's op latencies over its wall time. Dies when the
/// phase is too short for a p90 with ten samples beyond it.
PhaseStats Summarize(const std::vector<double>& latency_ms, double wall_s);

/// A flattened registry snapshot (obs::MetricsRegistry::Snapshot()).
using Snapshot = std::vector<std::pair<std::string, uint64_t>>;

/// after - before for every name in `after`; a name absent from `before`
/// counts from zero. Gauges and histogram quantiles are not monotone, so
/// callers read only counter and histogram count/sum names from the result.
std::map<std::string, uint64_t> CounterDelta(const Snapshot& before,
                                             const Snapshot& after);

/// Sums per-op counter deltas; PerOp divides the running total by the ops
/// that contributed.
class CounterTotals {
 public:
  void Add(const std::map<std::string, uint64_t>& delta);
  uint64_t Total(const std::string& name) const;
  double PerOp(const std::string& name) const;
  uint64_t ops() const { return ops_; }

 private:
  std::map<std::string, uint64_t> totals_;
  uint64_t ops_ = 0;
};

/// SplitMix64 finalizer: spreads ids and field hashes before they are summed.
uint64_t Mix64(uint64_t x);

/// Hash of one row's values, in column order.
uint64_t RowHash(const engine::Row& row);

/// Order-independent digest of a multiset: element count plus the sum of
/// the elements' mixed hashes. Two answers with equal digests hold the same
/// rows with overwhelming probability, whatever order they arrive in.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(uint64_t element_hash) {
    ++count;
    sum += Mix64(element_hash);
  }
  bool operator==(const Digest&) const = default;
};

/// Resident set of this process now, in MiB (/proc/self/statm), after
/// returning free heap pages to the system: the memory the program holds,
/// not what the allocator keeps for reuse. The workloads report the largest
/// reading taken at the end of each timed phase rather than the kernel's
/// high-water mark, which catches the brief double copy of a growing
/// buffer's reallocation only on some runs.
double ResidentMiB();

/// The benchmark's result: the last line of standard output.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);

  /// Records one attempted op, failed when `ok` is false.
  void Op(bool ok) { Ops(1, ok ? 0 : 1); }
  void Ops(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// A check outside any single op failed (a wrong recovery, a raised
  /// leakage alert): the run is incorrect.
  void Incorrect(const std::string& why);

  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  std::string ToJson() const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

}  // namespace mope::perfbench

#endif  // MOPE_PERFBENCH_HARNESS_H_
