#include "obs/timeseries.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/alerts.h"

namespace mope::obs {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string DoubleField(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string ValueField(MetricKind kind, uint64_t v) {
  char buf[24];
  if (kind == MetricKind::kGauge) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  }
  return buf;
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(MetricsRegistry* registry,
                                     TimeSeriesOptions options, Clock* clock)
    : registry_(registry),
      options_(options),
      clock_(clock != nullptr ? clock : SystemClock()),
      samples_counter_(registry->GetCounter("obs.timeseries.samples")),
      dropped_series_(registry->GetCounter("obs.timeseries.dropped_series")),
      series_gauge_(registry->GetGauge("obs.timeseries.series")) {}

TimeSeriesSampler::~TimeSeriesSampler() { Stop(); }

void TimeSeriesSampler::SampleOnce() {
  // Snapshot first (registry mutex, rank 80), ingest after: the two locks
  // are never held together, and the snapshot cost stays off our mutex.
  const uint64_t ts_ns = clock_->NowNanos();
  const std::vector<TypedSample> typed = registry_->TypedSnapshot();
  {
    const MutexLock lock(&mutex_);
    for (const TypedSample& sample : typed) {
      IngestLocked(ts_ns, sample.name, sample.kind, sample.value);
    }
    series_gauge_->Set(static_cast<int64_t>(series_.size()));
    // Push the fresh snapshot into the alert engine while still holding our
    // mutex (72 -> 73 is a legal acquisition): detach via SetAlertEngine is
    // then race-free.
    if (alert_engine_ != nullptr) alert_engine_->Observe(ts_ns, typed);
  }
  samples_counter_->Increment();
  samples_taken_.fetch_add(1, std::memory_order_relaxed);
}

void TimeSeriesSampler::Ingest(uint64_t ts_ns, const std::string& name,
                               MetricKind kind, uint64_t value) {
  const MutexLock lock(&mutex_);
  IngestLocked(ts_ns, name, kind, value);
  series_gauge_->Set(static_cast<int64_t>(series_.size()));
}

void TimeSeriesSampler::IngestLocked(uint64_t ts_ns, const std::string& name,
                                     MetricKind kind, uint64_t value) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    if (series_.size() >= options_.max_series) {
      // The budget is a hard cap: a runaway metric producer costs one
      // counter bump per sample, never memory.
      dropped_series_->Increment();
      return;
    }
    it = series_.emplace(name, Ring{}).first;
    it->second.kind = kind;
    it->second.points.reserve(
        std::min<size_t>(options_.window_capacity, 16));
  }
  Ring& ring = it->second;
  if (ring.count < options_.window_capacity) {
    ring.points.push_back({ts_ns, value});
    ++ring.count;
    ring.next = ring.points.size() % options_.window_capacity;
  } else {
    ring.points[ring.next] = {ts_ns, value};
    ring.next = (ring.next + 1) % options_.window_capacity;
  }
}

void TimeSeriesSampler::Start() {
  if (started_.exchange(true)) return;
  stopping_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { RunLoop(); });
}

void TimeSeriesSampler::Stop() {
  stopping_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  started_.store(false, std::memory_order_relaxed);
}

void TimeSeriesSampler::RunLoop() {
  // Poll the stop flag at a short cadence instead of sleeping a full period:
  // Stop() must not wait out a multi-second sample interval.
  uint64_t next_due_ns = clock_->NowNanos();
  while (!stopping_.load(std::memory_order_relaxed)) {
    const uint64_t now = clock_->NowNanos();
    if (now >= next_due_ns) {
      SampleOnce();
      next_due_ns = now + options_.sample_period_ns;
    }
    std::this_thread::sleep_for(  // invariant-ok: R16 stop-flag poll
        std::chrono::milliseconds(5));
  }
}

void TimeSeriesSampler::SetAlertEngine(AlertEngine* engine) {
  const MutexLock lock(&mutex_);
  alert_engine_ = engine;
}

size_t TimeSeriesSampler::series_count() const {
  const MutexLock lock(&mutex_);
  return series_.size();
}

std::vector<SeriesPoint> TimeSeriesSampler::TailLocked(const Ring& ring,
                                                       size_t window) const {
  const size_t cap = options_.window_capacity;
  const size_t n = std::min(window, ring.count);
  const size_t start = ring.count == cap ? ring.next : 0;
  std::vector<SeriesPoint> out;
  out.reserve(n);
  for (size_t i = ring.count - n; i < ring.count; ++i) {
    out.push_back(ring.points[(start + i) % cap]);
  }
  return out;
}

namespace {

SeriesRollup Rollup(MetricKind kind, const std::vector<SeriesPoint>& points) {
  SeriesRollup r;
  r.samples = points.size();
  if (points.empty()) return r;
  r.first_ts_ns = points.front().ts_ns;
  r.last_ts_ns = points.back().ts_ns;
  if (kind == MetricKind::kGauge) {
    // Gauges are signed levels bit-cast into u64; min/max/mean over the
    // signed interpretation, results bit-cast back.
    int64_t min = static_cast<int64_t>(points[0].value);
    int64_t max = min;
    double sum = 0.0;
    for (const SeriesPoint& p : points) {
      const int64_t v = static_cast<int64_t>(p.value);
      min = std::min(min, v);
      max = std::max(max, v);
      sum += static_cast<double>(v);
    }
    r.min = static_cast<uint64_t>(min);
    r.max = static_cast<uint64_t>(max);
    r.mean = sum / static_cast<double>(points.size());
  } else {
    uint64_t min = points[0].value;
    uint64_t max = min;
    double sum = 0.0;
    for (const SeriesPoint& p : points) {
      min = std::min(min, p.value);
      max = std::max(max, p.value);
      sum += static_cast<double>(p.value);
    }
    r.min = min;
    r.max = max;
    r.mean = sum / static_cast<double>(points.size());
  }
  if (kind == MetricKind::kCounter) {
    // Reset-aware delta: a counter that moved backwards restarted (process
    // or registry reset); the post-reset value is its own contribution.
    uint64_t delta = 0;
    for (size_t i = 1; i < points.size(); ++i) {
      const uint64_t prev = points[i - 1].value;
      const uint64_t cur = points[i].value;
      delta += cur >= prev ? cur - prev : cur;
    }
    r.delta = delta;
    const uint64_t span_ns = r.last_ts_ns - r.first_ts_ns;
    if (span_ns > 0) {
      r.rate_per_sec =
          static_cast<double>(delta) / (static_cast<double>(span_ns) / 1e9);
    }
  }
  return r;
}

}  // namespace

Result<std::vector<SeriesView>> TimeSeriesSampler::Query(
    const std::string& prefix, size_t window) const {
  if (window == 0) {
    return Status::InvalidArgument("window must be positive");
  }
  if (window > options_.window_capacity) {
    return Status::InvalidArgument(
        "window exceeds capacity " +
        std::to_string(options_.window_capacity));
  }
  const MutexLock lock(&mutex_);
  std::vector<SeriesView> out;
  // std::map iteration is name-ordered, so a prefix is one contiguous run.
  for (auto it = series_.lower_bound(prefix); it != series_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    SeriesView view;
    view.name = it->first;
    view.kind = it->second.kind;
    view.points = TailLocked(it->second, window);
    view.rollup = Rollup(view.kind, view.points);
    out.push_back(std::move(view));
  }
  if (out.empty()) {
    return Status::NotFound("no series matches prefix '" + prefix + "'");
  }
  return out;
}

Result<std::string> TimeSeriesSampler::RenderJson(const std::string& prefix,
                                                  size_t window) const {
  MOPE_ASSIGN_OR_RETURN(std::vector<SeriesView> views, Query(prefix, window));
  std::string out = "{\"window\":" + std::to_string(window) + ",\"series\":[";
  bool first = true;
  for (const SeriesView& view : views) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(view.name) + "\",\"kind\":\"";
    out += MetricKindName(view.kind);
    out += "\",\"points\":[";
    bool first_point = true;
    for (const SeriesPoint& p : view.points) {
      if (!first_point) out += ",";
      first_point = false;
      out += "[" + std::to_string(p.ts_ns) + "," +
             ValueField(view.kind, p.value) + "]";
    }
    out += "],\"rollup\":{\"samples\":" + std::to_string(view.rollup.samples);
    out += ",\"min\":" + ValueField(view.kind, view.rollup.min);
    out += ",\"max\":" + ValueField(view.kind, view.rollup.max);
    out += ",\"mean\":" + DoubleField(view.rollup.mean);
    out += ",\"first_ts_ns\":" + std::to_string(view.rollup.first_ts_ns);
    out += ",\"last_ts_ns\":" + std::to_string(view.rollup.last_ts_ns);
    if (view.kind == MetricKind::kCounter) {
      out += ",\"delta\":" + std::to_string(view.rollup.delta);
      out += ",\"rate_per_sec\":" + DoubleField(view.rollup.rate_per_sec);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace mope::obs
