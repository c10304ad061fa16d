#ifndef MOPE_OBS_REGISTRY_H_
#define MOPE_OBS_REGISTRY_H_

/// \file registry.h
/// The metrics registry: named counters, gauges and exponential-bucket
/// histograms, cheap enough for the hot paths they instrument.
///
/// Design rules:
///   - Lookup once, update forever: GetCounter/GetGauge/GetHistogram take a
///     registry lock and return a pointer that stays valid for the
///     registry's lifetime. Hot paths cache the pointer at construction and
///     pay one relaxed atomic RMW per update — no lock, no string.
///   - A counter bumped on a thread with an active obs::Trace also adds to
///     that trace's counter of the same name (one thread-local test when no
///     trace is active). The trace is therefore the per-query view of the
///     registry: EXPLAIN ANALYZE, the wire profile and the sampled query log
///     all read it, and a new counter is attributed with no list to extend.
///   - Every metric is readable while being written (all storage is atomic),
///     so a live stats endpoint can serve a consistent-enough snapshot from
///     under a running server without stalling it.
///   - Two exposition formats: a Prometheus-style text rendering (dots in
///     metric names become underscores) and a JSON dump; plus Snapshot(),
///     the flat (name, value) list the wire-level StatsReply carries.
///
/// There is one process-global default registry (Registry()) for code with
/// no better home, but the interesting actors own their own: each
/// engine::DbServer carries the registry its stats endpoint serves, and each
/// proxy::MopeSystem carries the client-side registry — which is what lets
/// one test process host both sides of the wire without the counters
/// bleeding into each other.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/trace.h"

namespace mope::obs {

/// Monotonically increasing event count. Increment also credits the
/// calling thread's active trace under the name the registry gave the
/// counter; the credit takes no lock, so a counter may be bumped while
/// holding any mutex.
class Counter {
 public:
  Counter() = default;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    if (Trace* trace = CurrentTrace(); trace != nullptr) {
      trace->IncrementCounter(name_, n);
    }
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  const std::string name_;
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed level (queue depths, open sessions).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed exponential-bucket histogram over non-negative integer samples
/// (latencies in nanoseconds, recursion depths, frame sizes — the unit is
/// the caller's). Bucket i counts samples <= 2^i; one extra bucket counts
/// the overflow. Observation is one relaxed atomic add on the bucket plus
/// two for count/sum — constant-time, lock-free, allocation-free.
class ExpHistogram {
 public:
  /// Buckets cover 2^0 .. 2^kMaxPow2 with one overflow bucket on top.
  static constexpr int kMaxPow2 = 40;  // ~1.1e12: 18 minutes in ns
  static constexpr int kNumBuckets = kMaxPow2 + 2;

  void Observe(uint64_t sample) {
    buckets_[BucketIndex(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Inclusive upper bound of bucket i (the overflow bucket has none and
  /// reports UINT64_MAX).
  static uint64_t BucketBound(int i) {
    return i > kMaxPow2 ? ~uint64_t{0} : (uint64_t{1} << i);
  }
  static int BucketIndex(uint64_t sample);

  /// Smallest bucket bound covering at least `q` (in [0,1]) of the mass;
  /// 0 when empty. A coarse quantile for dashboards, exact per bucket.
  uint64_t ApproxQuantile(double q) const;

  /// Quantile with linear interpolation inside the winning bucket (between
  /// its power-of-two lower and upper bounds). Still approximate — exact
  /// only at bucket boundaries — but monotone in q and far smoother than
  /// ApproxQuantile's bound snapping; this is what the p50/p95/p99 series
  /// in snapshots and expositions report. The overflow bucket has no upper
  /// bound and reports its lower bound.
  uint64_t QuantileInterpolated(double q) const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// How a flattened sample behaves over time — what a consumer (the
/// time-series sampler, an alert rule) may assume about consecutive reads.
enum class MetricKind : uint8_t {
  kCounter,  ///< monotone non-decreasing; deltas/rates are meaningful
  kGauge,    ///< signed level, bit-cast to u64; compare as int64_t
  kDerived,  ///< recomputed each read (histogram count/sum/quantiles)
};

const char* MetricKindName(MetricKind kind);

/// One flattened sample with its behavioural kind attached. `.count`/`.sum`
/// of a histogram are kDerived-but-monotone; quantiles are kDerived levels.
struct TypedSample {
  std::string name;
  MetricKind kind;
  uint64_t value;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned pointer is stable for the registry's
  /// lifetime; callers on hot paths cache it.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  ExpHistogram* GetHistogram(const std::string& name);

  /// Every metric flattened to (name, value) pairs in name order:
  /// counters as-is, gauges bit-cast to u64, histograms expanded to
  /// `<name>.count`, `<name>.sum` and `<name>.le.<bound>` per non-empty
  /// bucket. This is the wire payload of a StatsReply.
  std::vector<std::pair<std::string, uint64_t>> Snapshot() const;

  /// Snapshot variant for temporal consumers (the time-series sampler):
  /// same name order, but each sample carries its MetricKind and the
  /// per-bucket `.le.<bound>` series is skipped — a sampler wants the
  /// derived count/sum/p50/p95/p99, not 42 bucket series per histogram.
  /// Histogram `.count`/`.sum` report kCounter (they are monotone, so
  /// delta/rate handling applies); quantiles report kDerived (unsigned
  /// levels, recomputed each read).
  std::vector<TypedSample> TypedSnapshot() const;

  /// Prometheus-style text exposition ('.' -> '_' in names; histograms as
  /// cumulative `_bucket{le="..."}` series plus `_sum`/`_count`).
  std::string RenderText() const;

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {"count": c, "sum": s, "buckets": {bound: n}}}}.
  std::string RenderJson() const;

  /// Zeroes every metric (pointers stay valid). Test/bench convenience.
  void ResetAll();

 private:
  /// Guards the maps, never the metric values (those are atomic). Highest
  /// rank in the tree: the registry is a leaf every layer may call into.
  mutable Mutex mutex_{lock_rank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      MOPE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      MOPE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<ExpHistogram>> histograms_
      MOPE_GUARDED_BY(mutex_);
};

/// The process-global default registry, for instrumented code constructed
/// without an explicit registry (standalone schemes, ad-hoc tools).
MetricsRegistry* Registry();

}  // namespace mope::obs

#endif  // MOPE_OBS_REGISTRY_H_
