/// mope_perfbench: the repo benchmark's program.
///
///   mope_perfbench --workload <analyst_q6|server_replay|durable_load>
///                  --seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]
///
/// Prints one JSON object as its last line: the end-to-end metrics with
/// --trace 0, the per-layer metrics with --trace 1. perfbench/run.py builds
/// this binary and is the command BENCHMARK.json names.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/log.h"
#include "workloads.h"

namespace mope::perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order. A workload that does not touch
/// a layer reports it as 0; run.py checks this list against BENCHMARK.json.
constexpr LayerMetric kLayerMetrics[] = {
    {"workload.generate_s", "s"},
    {"ope.load_encrypt_s", "s"},
    {"unattributed_pct", "%"},
    {"trace_overhead_pct", "%"},
    {"query.sample_ms", "ms"},
    {"ope.encrypt_ms", "ms"},
    {"ope.decrypt_ms", "ms"},
    {"ope.hgd_draws", "count/op"},
    {"ope.encrypt_calls", "count/op"},
    {"ope.decrypt_calls", "count/op"},
    {"ope.decrypts_per_distinct", "ratio"},
    {"query.fakes_per_real", "ratio"},
    {"proxy.self_ms", "ms"},
    {"proxy.rows_shipped_per_row", "ratio"},
    {"net.client_ms", "ms"},
    {"net.socket_wait_ms", "ms"},
    {"net.dispatch_ms", "ms"},
    {"net.reply_encode_ms", "ms"},
    {"net.lock_wait_ms", "ms"},
    {"net.retries", "count"},
    {"net.p99_ms", "ms"},
    {"obs.audit_ms", "ms"},
    {"engine.sweep_ms", "ms"},
    {"engine.rows_returned", "count/op"},
    {"engine.entries_visited", "count/op"},
    {"engine.index_nodes_visited", "count/op"},
    {"engine.insert_ms", "ms"},
    {"engine.recovery_rebuild_ms", "ms"},
    {"storage.write_ms", "ms"},
    {"storage.sync_ms", "ms"},
    {"storage.fsyncs", "count/op"},
    {"storage.wal_bytes_per_row", "B/row"},
    {"storage.page_writes_per_row", "count/row"},
    {"storage.pool_evictions", "count/op"},
    {"storage.disk_bytes_per_row", "B/row"},
    {"storage.stored_bytes_per_row", "B/row"},
    {"storage.recovery_s", "s"},
    {"storage.recovery_read_ms", "ms"},
    {"storage.recovery_read_bytes", "B"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "mope_perfbench: %s\nusage: mope_perfbench --workload "
               "<analyst_q6|server_replay|durable_load> --seed <n> "
               "--seconds <s> --trace <0|1> [--data-dir <dir>]\n",
               why);
  std::exit(2);
}

uint64_t ParseUint(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') Usage(flag);
  return value;
}

}  // namespace
}  // namespace mope::perfbench

int main(int argc, char** argv) {
  using namespace mope::perfbench;
  RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseUint(value, "bad --seed");
    } else if (flag == "--seconds") {
      const uint64_t seconds = ParseUint(value, "bad --seconds");
      if (seconds < 1 || seconds > 600) Usage("--seconds must be 1..600");
      options.seconds = static_cast<int>(seconds);
    } else if (flag == "--trace") {
      const uint64_t trace = ParseUint(value, "bad --trace");
      if (trace > 1) Usage("--trace must be 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }

  // Info lines (two per durable_load recovery) would only flood standard
  // error; warnings, such as a raised leakage alert, still show.
  mope::obs::Logger::Default()->SetMinLevel(mope::obs::LogLevel::kWarn);
  Report report;
  Layers layers;
  if (workload == "analyst_q6") {
    RunAnalystQ6(options, &report, &layers);
  } else if (workload == "server_replay") {
    RunServerReplay(options, &report, &layers);
  } else if (workload == "durable_load") {
    RunDurableLoad(options, &report, &layers);
  } else {
    Usage("unknown --workload");
  }

  if (options.trace) {
    for (const LayerMetric& metric : kLayerMetrics) {
      const auto it = layers.find(metric.name);
      report.Metric(metric.name, it == layers.end() ? 0.0 : it->second,
                    metric.unit);
      if (it != layers.end()) layers.erase(it);
    }
    for (const auto& [name, value] : layers) {
      report.Incorrect("per-layer metric " + name + " is not declared");
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
