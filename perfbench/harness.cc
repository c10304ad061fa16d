#include "harness.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <type_traits>
#include <variant>

#include "common/status.h"

namespace mope::perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q,
                                 size_t min_beyond) {
  if (samples.empty()) return std::nullopt;
  const size_t n = samples.size();
  const size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5, 0).value_or(0.0);
}

PhaseStats Summarize(const std::vector<double>& latency_ms, double wall_s) {
  const auto p90 = Percentile(latency_ms, 0.9, 10);
  MOPE_CHECK(p90.has_value(), "p90 needs ten samples beyond it");
  return PhaseStats{static_cast<double>(latency_ms.size()) / wall_s,
                    Median(latency_ms), *p90};
}

std::map<std::string, uint64_t> SpanSelfNanos(
    const std::vector<obs::Span>& spans) {
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& span = spans[i];
    if (span.end_ns < span.start_ns) continue;
    const uint64_t duration = span.end_ns - span.start_ns;
    self[i] += duration;
    if (span.parent != 0) self[span.parent - 1] -= duration;
  }
  std::map<std::string, uint64_t> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

std::map<std::string, uint64_t> CounterDelta(const Snapshot& before,
                                             const Snapshot& after) {
  std::map<std::string, uint64_t> base(before.begin(), before.end());
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : after) {
    const auto it = base.find(name);
    delta[name] = value - (it == base.end() ? 0 : it->second);
  }
  return delta;
}

void CounterTotals::Add(const std::map<std::string, uint64_t>& delta) {
  for (const auto& [name, value] : delta) totals_[name] += value;
  ++ops_;
}

uint64_t CounterTotals::Total(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second;
}

double CounterTotals::PerOp(const std::string& name) const {
  return ops_ == 0 ? 0.0
                   : static_cast<double>(Total(name)) /
                         static_cast<double>(ops_);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t RowHash(const engine::Row& row) {
  uint64_t h = 0x243F6A8885A308D3ULL;
  for (const engine::Value& value : row) {
    const uint64_t field = std::visit(
        [](const auto& v) -> uint64_t {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) {
            uint64_t fnv = 0xCBF29CE484222325ULL;
            for (const char c : v) {
              fnv = (fnv ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
            }
            return fnv;
          } else if constexpr (std::is_same_v<T, double>) {
            return std::bit_cast<uint64_t>(v);
          } else {
            return static_cast<uint64_t>(v);
          }
        },
        value);
    h = Mix64(h ^ (field + value.index()));
  }
  return h;
}

double ResidentMiB() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  MOPE_CHECK(static_cast<bool>(statm >> size_pages >> resident_pages),
             "read /proc/self/statm");
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Incorrect("metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

void Report::Incorrect(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: incorrect: %s\n", why.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    char value[40];
    std::snprintf(value, sizeof(value), "%.15g", value_unit.first);
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           value_unit.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace mope::perfbench
