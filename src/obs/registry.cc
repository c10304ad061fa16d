#include "obs/registry.h"

#include <algorithm>

#include "obs/json.h"

namespace mope::obs {

namespace {

using internal::JsonEscape;

/// Prometheus names: [a-zA-Z_:][a-zA-Z0-9_:]*. Our internal names are
/// dotted; everything else already conforms.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kDerived:
      return "derived";
  }
  return "unknown";
}

int ExpHistogram::BucketIndex(uint64_t sample) {
  // Bucket i holds samples in (2^(i-1), 2^i]; sample 0 and 1 land in bucket 0.
  if (sample <= 1) return 0;
  int bit = 63 - __builtin_clzll(sample);
  // Exact powers of two belong to their own bucket, everything else rounds up.
  const int idx = ((sample & (sample - 1)) == 0) ? bit : bit + 1;
  return idx > kMaxPow2 ? kMaxPow2 + 1 : idx;
}

uint64_t ExpHistogram::ApproxQuantile(double q) const {
  const uint64_t total = Count();
  if (total == 0) return 0;
  const uint64_t target =
      static_cast<uint64_t>(q * static_cast<double>(total));
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += BucketCount(i);
    if (seen > target || seen == total) return BucketBound(i);
  }
  return BucketBound(kNumBuckets - 1);
}

uint64_t ExpHistogram::QuantileInterpolated(double q) const {
  const uint64_t total = Count();
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t n = BucketCount(i);
    if (n == 0) continue;
    if (seen + static_cast<double>(n) >= target) {
      const uint64_t lo = i == 0 ? 0 : BucketBound(i - 1);
      if (i > kMaxPow2) return lo;  // overflow bucket: no upper bound
      const uint64_t hi = BucketBound(i);
      const double frac =
          n == 0 ? 0.0 : (target - seen) / static_cast<double>(n);
      return lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
    }
    seen += static_cast<double>(n);
  }
  return BucketBound(kNumBuckets - 1);
}

void ExpHistogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  const MutexLock lock(&mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name);
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  const MutexLock lock(&mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

ExpHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  const MutexLock lock(&mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<ExpHistogram>();
  return slot.get();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::Snapshot()
    const {
  const MutexLock lock(&mutex_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size() + gauges_.size() + 4 * histograms_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, static_cast<uint64_t>(gauge->Value()));
  }
  for (const auto& [name, hist] : histograms_) {
    out.emplace_back(name + ".count", hist->Count());
    out.emplace_back(name + ".sum", hist->Sum());
    // Quantiles are emitted even for a never-observed histogram (as 0), so
    // temporal consumers see a continuous series from the first scrape.
    out.emplace_back(name + ".p50", hist->QuantileInterpolated(0.50));
    out.emplace_back(name + ".p95", hist->QuantileInterpolated(0.95));
    out.emplace_back(name + ".p99", hist->QuantileInterpolated(0.99));
    for (int i = 0; i < ExpHistogram::kNumBuckets; ++i) {
      const uint64_t n = hist->BucketCount(i);
      if (n == 0) continue;
      const std::string bound =
          i > ExpHistogram::kMaxPow2
              ? "inf"
              : std::to_string(ExpHistogram::BucketBound(i));
      out.emplace_back(name + ".le." + bound, n);
    }
  }
  // The maps are ordered, but the three families interleave: fix one order.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TypedSample> MetricsRegistry::TypedSnapshot() const {
  const MutexLock lock(&mutex_);
  std::vector<TypedSample> out;
  out.reserve(counters_.size() + gauges_.size() + 5 * histograms_.size());
  for (const auto& [name, counter] : counters_) {
    out.push_back({name, MetricKind::kCounter, counter->Value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    out.push_back({name, MetricKind::kGauge,
                   static_cast<uint64_t>(gauge->Value())});
  }
  for (const auto& [name, hist] : histograms_) {
    out.push_back({name + ".count", MetricKind::kCounter, hist->Count()});
    out.push_back({name + ".sum", MetricKind::kCounter, hist->Sum()});
    out.push_back(
        {name + ".p50", MetricKind::kDerived, hist->QuantileInterpolated(0.50)});
    out.push_back(
        {name + ".p95", MetricKind::kDerived, hist->QuantileInterpolated(0.95)});
    out.push_back(
        {name + ".p99", MetricKind::kDerived, hist->QuantileInterpolated(0.99)});
  }
  std::sort(out.begin(), out.end(),
            [](const TypedSample& a, const TypedSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::string MetricsRegistry::RenderText() const {
  const MutexLock lock(&mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(counter->Value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + std::to_string(gauge->Value()) + "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " histogram\n";
    uint64_t cumulative = 0;
    for (int i = 0; i < ExpHistogram::kNumBuckets; ++i) {
      cumulative += hist->BucketCount(i);
      if (i > ExpHistogram::kMaxPow2) {
        out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
               "\n";
      } else if (hist->BucketCount(i) > 0 || i == ExpHistogram::kMaxPow2) {
        out += prom + "_bucket{le=\"" +
               std::to_string(ExpHistogram::BucketBound(i)) + "\"} " +
               std::to_string(cumulative) + "\n";
      }
    }
    // Prometheus histogram convention: the full cumulative `_bucket` series
    // (ending at le="+Inf" == _count) first, then `_sum`, then `_count`.
    out += prom + "_sum " + std::to_string(hist->Sum()) + "\n";
    out += prom + "_count " + std::to_string(hist->Count()) + "\n";
    // Interpolated quantiles as companion gauges (a native histogram's
    // consumers would compute these server-side via histogram_quantile();
    // exporting them too costs three lines and saves every dashboard the
    // PromQL). Emitted even when the histogram has never observed a sample
    // (as 0): a scrape-side rate() or dashboard query over a fresh series
    // must not gap between the first scrape and the first observation.
    for (const auto& [suffix, q] :
         {std::pair<const char*, double>{"_p50", 0.50},
          {"_p95", 0.95},
          {"_p99", 0.99}}) {
      out += "# TYPE " + prom + suffix + " gauge\n";
      out += prom + suffix + " " +
             std::to_string(hist->QuantileInterpolated(q)) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  const MutexLock lock(&mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(counter->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(gauge->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":{\"count\":" +
           std::to_string(hist->Count()) +
           ",\"sum\":" + std::to_string(hist->Sum()) +
           ",\"p50\":" + std::to_string(hist->QuantileInterpolated(0.50)) +
           ",\"p95\":" + std::to_string(hist->QuantileInterpolated(0.95)) +
           ",\"p99\":" + std::to_string(hist->QuantileInterpolated(0.99)) +
           ",\"buckets\":{";
    bool first_bucket = true;
    for (int i = 0; i < ExpHistogram::kNumBuckets; ++i) {
      const uint64_t n = hist->BucketCount(i);
      if (n == 0) continue;
      if (!first_bucket) out += ",";
      first_bucket = false;
      const std::string bound =
          i > ExpHistogram::kMaxPow2
              ? "inf"
              : std::to_string(ExpHistogram::BucketBound(i));
      out += "\"" + bound + "\":" + std::to_string(n);
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

void MetricsRegistry::ResetAll() {
  const MutexLock lock(&mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

MetricsRegistry* Registry() {
  static MetricsRegistry* global = new MetricsRegistry();  // never destroyed
  return global;
}

}  // namespace mope::obs
