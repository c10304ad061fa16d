#ifndef MOPE_BENCH_BENCH_UTIL_H_
#define MOPE_BENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// Shared helpers for the figure-reproduction benches: fixed-width table
/// printing (every bench prints the series of its paper figure), workload
/// setup, a stopwatch over the injectable obs::Clock, and a JSON report
/// writer so every figure's numbers land in a machine-readable
/// BENCH_<name>.json next to the human-readable table.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dist/distribution.h"
#include "obs/clock.h"
#include "query/algorithms.h"
#include "query/cost.h"
#include "workload/datasets.h"
#include "workload/generator.h"

namespace mope::bench {

/// Prints a banner naming the figure being reproduced.
inline void PrintHeader(const std::string& figure, const std::string& what) {
  std::printf("\n=== %s — %s ===\n", figure.c_str(), what.c_str());
}

/// Fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> columns, int width = 14)
      : columns_(std::move(columns)), width_(width) {
    for (const auto& col : columns_) {
      std::printf("%*s", width_, col.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%*s", width_, "------------");
    }
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) const {
    for (const auto& cell : cells) {
      std::printf("%*s", width_, cell.c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> columns_;
  int width_;
};

inline std::string Fmt(double v, int precision = 2) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtMs(double ms) {
  char buf[32];
  if (ms >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ms / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fms", ms);
  }
  return buf;
}

/// Wall-time stopwatch over an injectable clock (R7: no direct
/// std::chrono clocks outside src/obs/clock.*). Benches use the default
/// SystemClock; tests of bench helpers can pass a ManualClock.
class Stopwatch {
 public:
  explicit Stopwatch(obs::Clock* clock = nullptr)
      : clock_(clock != nullptr ? clock : obs::SystemClock()),
        start_ns_(clock_->NowNanos()) {}
  double ElapsedMs() const {
    return static_cast<double>(clock_->NowNanos() - start_ns_) / 1e6;
  }

 private:
  obs::Clock* clock_;
  uint64_t start_ns_;
};

/// Collects one flat JSON object per data point and writes them to
/// BENCH_<name>.json, so plots and regression checks can consume a bench
/// run without scraping its tables. Usage:
///
///   JsonReport report("fig05_adult_cost");
///   report.BeginRow().Field("metric", "bandwidth").Field("value", 12.5);
///   report.Write();   // -> BENCH_fig05_adult_cost.json in the cwd
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  JsonReport& BeginRow() {
    rows_.emplace_back();
    return *this;
  }
  JsonReport& Field(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, "\"" + Escape(value) + "\"");
    return *this;
  }
  JsonReport& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  JsonReport& Field(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    rows_.back().emplace_back(key, buf);
    return *this;
  }
  JsonReport& Field(const std::string& key, uint64_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonReport& Field(const std::string& key, int value) {
    return Field(key, static_cast<uint64_t>(value));
  }

  /// Serializes {"bench": <name>, "rows": [...]} to BENCH_<name>.json in
  /// the working directory. Returns false (and prints to stderr) on I/O
  /// failure — benches report it but still exit 0 on good numbers.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::string out = "{\n  \"bench\": \"" + Escape(name_) + "\",\n"
                      "  \"rows\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out += "    {";
      for (size_t f = 0; f < rows_[i].size(); ++f) {
        if (f > 0) out += ", ";
        out += "\"" + Escape(rows_[i][f].first) + "\": " + rows_[i][f].second;
      }
      out += i + 1 < rows_.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    const bool ok =
        std::fwrite(out.data(), 1, out.size(), file) == out.size();
    std::fclose(file);
    if (ok) std::printf("\n[%s written: %zu rows]\n", path.c_str(),
                        rows_.size());
    return ok;
  }

 private:
  static std::string Escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (const char ch : in) {
      if (ch == '"' || ch == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(ch) < 0x20) {
        out += ' ';
        continue;
      }
      out.push_back(ch);
    }
    return out;
  }

  std::string name_;
  // Each row: ordered (key, already-JSON-encoded value) pairs.
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// One dataset-driven cost experiment (the common core of Figs. 5-12):
/// generate `num_queries` user queries (centers from the dataset, lengths
/// from |N(0, sigma^2)|), run them through QueryU (period == 0) or
/// QueryP[period], and evaluate the Section 6 cost functions against a
/// deterministically-populated database of `num_records` records.
struct CostRunResult {
  double bandwidth = 0.0;
  double requests = 0.0;
};

/// Pads a distribution with zero-probability elements up to `size` (used to
/// make the Adult domain divisible by the Figure 5/10 periods; queries never
/// land in the pad, fake queries may).
inline dist::Distribution PadDistribution(const dist::Distribution& d,
                                          uint64_t size) {
  MOPE_CHECK(size >= d.size(), "pad size must not shrink the domain");
  std::vector<double> weights(d.probs());
  weights.resize(size, 0.0);
  auto padded = dist::Distribution::FromWeights(std::move(weights));
  MOPE_CHECK(padded.ok(), "padding failed");
  return std::move(padded).value();
}

inline CostRunResult RunCostExperiment(workload::DatasetKind kind,
                                       double sigma, uint64_t k,
                                       uint64_t period, uint64_t num_queries,
                                       uint64_t pad_to = 0,
                                       uint64_t seed = 0xC057) {
  dist::Distribution data = workload::MakeDataset(kind);
  if (pad_to > data.size()) data = PadDistribution(data, pad_to);
  Rng rng(seed ^ (period * 0x9E37) ^ k ^ static_cast<uint64_t>(sigma * 7));

  // Database contents follow the dataset distribution.
  const query::RecordCounter counter(
      workload::DeterministicCounts(data, 50 * data.size()));

  // Query-start distribution learned from a large sample (the proxy's
  // a-priori knowledge in the non-adaptive algorithms).
  const dist::Distribution starts =
      workload::BuildStartDistribution(data, {sigma}, k, 20000, &rng);

  // Rows label QueryU as period 0; it runs as QueryP[1].
  auto algorithm = query::PeriodicQueryAlgorithm::Create(
      {data.size(), k}, starts, period == 0 ? 1 : period);
  MOPE_CHECK(algorithm.ok(), "query algorithm creation failed");

  query::CostAccumulator cost(&counter, k);
  for (uint64_t i = 0; i < num_queries; ++i) {
    const query::RangeQuery q = workload::GenerateQuery(data, {sigma}, &rng);
    auto batch = (*algorithm)->Process(q, &rng);
    MOPE_CHECK(batch.ok(), "query processing failed");
    cost.AddBatch(q, *batch);
  }
  return CostRunResult{cost.Bandwidth(), cost.Requests()};
}

/// Formats a period column value ("n/a" for QueryU).
inline std::string PeriodLabel(uint64_t period) {
  return period == 0 ? "n/a" : std::to_string(period);
}

/// The Figures 5-7 shape: Bandwidth and Requests vs period, one curve per
/// sigma. `pad_to` pads the domain so every period divides it (0 = none).
inline void RunPeriodSweep(workload::DatasetKind kind,
                           const std::vector<double>& sigmas, uint64_t k,
                           const std::vector<uint64_t>& periods,
                           uint64_t pad_to, uint64_t num_queries,
                           JsonReport* report = nullptr) {
  const std::string name = workload::DatasetName(kind);
  for (const char* metric : {"Bandwidth", "Requests"}) {
    std::printf("\n%s cost — %s query distribution (k = %llu):\n", metric,
                name.c_str(), static_cast<unsigned long long>(k));
    std::vector<std::string> header{"period"};
    for (double sigma : sigmas) {
      header.push_back(name + std::to_string(static_cast<int>(sigma)));
    }
    TablePrinter table(header, 16);
    for (uint64_t period : periods) {
      std::vector<std::string> row{PeriodLabel(period)};
      for (double sigma : sigmas) {
        const CostRunResult r =
            RunCostExperiment(kind, sigma, k, period, num_queries, pad_to);
        const double value = metric[0] == 'B' ? r.bandwidth : r.requests;
        row.push_back(Fmt(value));
        if (report != nullptr) {
          report->BeginRow()
              .Field("metric", metric[0] == 'B' ? "bandwidth" : "requests")
              .Field("dataset", name)
              .Field("period", period)
              .Field("sigma", sigma)
              .Field("k", k)
              .Field("value", value);
        }
      }
      table.Row(row);
    }
  }
}

/// The Figures 8-12 shape: Bandwidth and Requests vs fixed length k at a
/// fixed period, one curve per sigma.
inline void RunLengthSweep(workload::DatasetKind kind,
                           const std::vector<double>& sigmas,
                           const std::vector<uint64_t>& ks, uint64_t period,
                           uint64_t pad_to, uint64_t num_queries,
                           JsonReport* report = nullptr) {
  const std::string name = workload::DatasetName(kind);
  for (const char* metric : {"Bandwidth", "Requests"}) {
    std::printf("\n%s cost — %s query pattern (period = %s):\n", metric,
                name.c_str(), PeriodLabel(period).c_str());
    std::vector<std::string> header{"length k"};
    for (double sigma : sigmas) {
      header.push_back(name + std::to_string(static_cast<int>(sigma)));
    }
    TablePrinter table(header, 16);
    for (uint64_t k : ks) {
      std::vector<std::string> row{std::to_string(k)};
      for (double sigma : sigmas) {
        const CostRunResult r =
            RunCostExperiment(kind, sigma, k, period, num_queries, pad_to);
        const double value = metric[0] == 'B' ? r.bandwidth : r.requests;
        row.push_back(Fmt(value));
        if (report != nullptr) {
          report->BeginRow()
              .Field("metric", metric[0] == 'B' ? "bandwidth" : "requests")
              .Field("dataset", name)
              .Field("period", period)
              .Field("sigma", sigma)
              .Field("k", k)
              .Field("value", value);
        }
      }
      table.Row(row);
    }
  }
}

}  // namespace mope::bench

#endif  // MOPE_BENCH_BENCH_UTIL_H_
