#ifndef MOPE_OBS_TIMESERIES_H_
#define MOPE_OBS_TIMESERIES_H_

/// \file timeseries.h
/// In-process metric history: a fixed-memory-budget ring-buffer sampler.
///
/// Everything the registry exposes is a point-in-time snapshot, but the
/// Section 5 attacks this repo reproduces are *temporal* processes — the
/// largest-gap offset estimate converges and the chi-square statistic drifts
/// over a stream of queries — so the operator-facing question is a trend,
/// not a sample. The TimeSeriesSampler answers it without any external TSDB:
/// it periodically snapshots a MetricsRegistry (TypedSnapshot) into one ring
/// buffer of (timestamp, value) points per metric, under a hard memory
/// budget:
///
///     memory <= max_series * window_capacity * sizeof(SeriesPoint)
///               + name storage
///
/// New metrics past `max_series` are dropped (and accounted in the
/// `obs.timeseries.dropped_series` counter), never grown into: a hostile or
/// buggy metric producer cannot turn the sampler into a leak.
///
/// Time comes from an injectable obs::Clock, so tests drive SampleOnce()
/// with a ManualClock and get byte-stable series; production calls Start()
/// to spawn a background thread that samples every `sample_period_ns`.
///
/// Queries return the most recent `window` points per matching series plus
/// windowed rollups (min/max/mean; for counters also a reset-aware delta and
/// a rate per second). This backs the HTTP expositor's
/// `GET /vars?metric=<prefix>&window=<n>` endpoint and the `\history`
/// command in mope_shell — the shell side feeds wire-fetched StatsReply
/// snapshots in through Ingest() instead of sampling a local registry.
///
/// Locking: the sampler's mutex ranks at lock_rank::kTimeSeriesSampler (72),
/// below the alert engine (73) — SampleOnce() pushes each fresh snapshot
/// into an attached AlertEngine while holding its own lock, and the engine
/// logs (kLogSink, 75) and reads the registry (80), so the whole chain
/// 72 -> 73 -> 75 -> 80 is strictly increasing.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"
#include "obs/registry.h"

namespace mope::obs {

class AlertEngine;

struct TimeSeriesOptions {
  /// Cadence of the background sampler (and the spacing tests emulate).
  uint64_t sample_period_ns = 1'000'000'000;  // 1s
  /// Ring capacity per series: the N most recent samples are kept.
  size_t window_capacity = 128;
  /// Hard cap on distinct series; later registrations are dropped.
  size_t max_series = 4096;
};

/// One retained sample.
struct SeriesPoint {
  uint64_t ts_ns = 0;
  uint64_t value = 0;
};

/// Windowed rollups over the points a query returned. For kGauge series the
/// min/max/mean are computed over the signed interpretation; the fields here
/// carry the same bit-cast convention as the registry (cast back via
/// int64_t). delta/rate_per_sec are only meaningful for kCounter series and
/// are reset-aware: a counter that moved backwards (process restart)
/// restarts the delta from the post-reset value.
struct SeriesRollup {
  size_t samples = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  uint64_t first_ts_ns = 0;
  uint64_t last_ts_ns = 0;
  uint64_t delta = 0;
  double rate_per_sec = 0.0;
};

/// One queried series: the retained points (oldest first) plus rollups.
struct SeriesView {
  std::string name;
  MetricKind kind = MetricKind::kGauge;
  std::vector<SeriesPoint> points;
  SeriesRollup rollup;
};

class TimeSeriesSampler {
 public:
  /// `registry` and `clock` must outlive the sampler; clock nullptr selects
  /// SystemClock(). The sampler registers its own accounting
  /// (obs.timeseries.samples / .series / .dropped_series) in `registry`.
  TimeSeriesSampler(MetricsRegistry* registry, TimeSeriesOptions options,
                    Clock* clock = nullptr);
  ~TimeSeriesSampler();

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Takes one snapshot of the registry now. The background thread calls
  /// this on its period; tests call it directly under a ManualClock.
  void SampleOnce() MOPE_EXCLUDES(mutex_);

  /// Feeds one externally obtained sample (mope_shell ingesting a wire
  /// StatsReply). Subject to the same series cap and ring eviction.
  void Ingest(uint64_t ts_ns, const std::string& name, MetricKind kind,
              uint64_t value) MOPE_EXCLUDES(mutex_);

  /// Spawns the background sampling thread (idempotent). Requires a real
  /// clock to be useful; tests normally skip Start() and drive SampleOnce().
  void Start();
  /// Stops and joins the background thread (idempotent; destructor calls it).
  void Stop();

  /// Pushes every fresh snapshot into `engine` (may be nullptr to detach).
  /// The engine must outlive the sampler or be detached first.
  void SetAlertEngine(AlertEngine* engine) MOPE_EXCLUDES(mutex_);

  /// The most recent `window` points of every series whose name starts with
  /// `prefix` (empty prefix: all series). Errors:
  ///   InvalidArgument — window == 0 or window > window_capacity,
  ///   NotFound       — no series matches the prefix.
  Result<std::vector<SeriesView>> Query(const std::string& prefix,
                                        size_t window) const
      MOPE_EXCLUDES(mutex_);

  /// Query() rendered as one JSON object (the /vars payload):
  /// {"window":n,"series":[{"name":...,"kind":...,"points":[[ts,v],...],
  ///  "rollup":{...}}]}.
  Result<std::string> RenderJson(const std::string& prefix,
                                 size_t window) const MOPE_EXCLUDES(mutex_);

  // --- Introspection -------------------------------------------------------
  size_t series_count() const MOPE_EXCLUDES(mutex_);
  uint64_t samples_taken() const {
    return samples_taken_.load(std::memory_order_relaxed);
  }
  size_t max_window() const { return options_.window_capacity; }
  uint64_t sample_period_ns() const { return options_.sample_period_ns; }

 private:
  /// Fixed-capacity ring of the most recent points.
  struct Ring {
    MetricKind kind = MetricKind::kGauge;
    std::vector<SeriesPoint> points;  // capacity window_capacity once full
    size_t next = 0;                  // slot the next point overwrites
    size_t count = 0;                 // min(points ever, capacity)
  };

  void IngestLocked(uint64_t ts_ns, const std::string& name, MetricKind kind,
                    uint64_t value) MOPE_REQUIRES(mutex_);
  /// Oldest-first copy of the last `window` points of `ring`.
  std::vector<SeriesPoint> TailLocked(const Ring& ring, size_t window) const
      MOPE_REQUIRES(mutex_);
  void RunLoop();

  MetricsRegistry* const registry_;
  const TimeSeriesOptions options_;
  Clock* const clock_;

  mutable Mutex mutex_{lock_rank::kTimeSeriesSampler};
  std::map<std::string, Ring> series_ MOPE_GUARDED_BY(mutex_);
  AlertEngine* alert_engine_ MOPE_GUARDED_BY(mutex_) = nullptr;

  std::atomic<uint64_t> samples_taken_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::thread thread_;

  // Accounting handles (atomic targets; safe without the sampler mutex).
  Counter* samples_counter_;
  Counter* dropped_series_;
  Gauge* series_gauge_;
};

}  // namespace mope::obs

#endif  // MOPE_OBS_TIMESERIES_H_
