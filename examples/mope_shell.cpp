/// mope_shell — an interactive SQL shell over the encrypted system.
///
/// Boots the three-party architecture with a TPC-H-style warehouse whose
/// l_shipdate column is MOPE-encrypted, then reads SQL from stdin and runs
/// it through the CryptDB-style EncryptedSqlSession: range predicates on
/// l_shipdate are rewritten into mixed real+fake encrypted range queries;
/// everything else executes client-side over the fetched rows.
///
/// Usage:
///   mope_shell                      # interactive (reads stdin)
///   echo "SELECT ..." | mope_shell  # scripted
///   mope_shell -c "SELECT ..."      # one-shot
///   mope_shell --connect HOST:PORT  # proxy-only: data lives in mope_serverd
///
/// With --connect the shell is the trusted proxy of the paper's Figure 4 in
/// its own process: the ciphertext stays in a remote mope_serverd, and this
/// process re-derives the MOPE key from the shared seed (0x5811) — the key
/// never crosses the wire. Two-process quickstart:
///
///   mope_serverd --tpch --port 5811 &
///   mope_shell --connect 127.0.0.1:5811
///
/// Meta-commands: \help  \stats  \serverstats  \history  \explain SQL
/// \leakage  \trace [--chrome FILE]  \rotate  \tables  \snapshot PATH  \quit
/// (\rotate and \snapshot need the embedded server; unavailable remotely.
/// \serverstats works for both: embedded reads the registry directly,
/// --connect fetches it from the daemon over the wire. `-c` accepts
/// meta-commands too: `mope_shell --connect H:P -c '\serverstats'`.)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "engine/snapshot.h"
#include "net/remote_connection.h"
#include "obs/clock.h"
#include "obs/leakage.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"
#include "proxy/sql_session.h"
#include "workload/tpch.h"

namespace {

using namespace mope;  // NOLINT

void PrintResult(const sql::SqlResult& result) {
  // EXPLAIN output is a pre-formatted plan tree: column padding would
  // mangle the indentation, so print it verbatim.
  if (result.columns.size() == 1 && result.columns[0] == "QUERY PLAN") {
    std::printf("QUERY PLAN\n----------\n");
    for (const auto& row : result.rows) {
      std::printf("%s\n", engine::ValueToString(row[0]).c_str());
    }
    return;
  }
  for (const auto& col : result.columns) std::printf("%18s", col.c_str());
  std::printf("\n");
  for (size_t i = 0; i < result.columns.size(); ++i) std::printf("%18s", "---");
  std::printf("\n");
  size_t shown = 0;
  for (const auto& row : result.rows) {
    for (const auto& value : row) {
      std::printf("%18s", engine::ValueToString(value).c_str());
    }
    std::printf("\n");
    if (++shown == 25 && result.rows.size() > 25) {
      std::printf("... (%zu rows total)\n", result.rows.size());
      break;
    }
  }
  std::printf("(%zu rows)\n", result.rows.size());
}

void PrintHelp() {
  std::printf(
      "Encrypted SQL over MOPE. The LINEITEM table's l_shipdate column is\n"
      "encrypted (day index, 0 = 1992-01-01); queries need a range predicate\n"
      "on it. The PART table is attached client-side for joins.\n\n"
      "  SELECT SUM(l_extendedprice * l_discount) FROM lineitem\n"
      "    WHERE l_shipdate BETWEEN 366 AND 730 AND l_discount < 0.05\n\n"
      "EXPLAIN <select> shows the fetch decision and local plan with\n"
      "estimates; EXPLAIN ANALYZE <select> executes it and annotates each\n"
      "operator with actuals plus the query's resource vector (real/fake\n"
      "mix, HGD draws, server counter deltas, wire bytes).\n\n"
      "meta-commands:\n"
      "  \\help           this text        \\stats   session traffic\n"
      "  \\tables         schemas          \\rotate  rotate the MOPE key\n"
      "  \\explain SQL    shorthand for EXPLAIN ANALYZE SQL\n"
      "  \\serverstats    the server's metrics registry (over the wire\n"
      "                  when --connect; the proxy never leaves its process)\n"
      "  \\history [PREFIX [N]]\n"
      "                  metric history: every \\history call snapshots the\n"
      "                  server's registry into a client-side ring-buffer\n"
      "                  sampler; with PREFIX it prints the last N (default\n"
      "                  8) samples + rollups of each matching series\n"
      "  \\leakage        live leakage-audit verdict from the server's\n"
      "                  leakage.* gauges (enable with `\\leakage on`\n"
      "                  embedded, or `mope_serverd --audit` remotely)\n"
      "  \\trace          toggle per-query tracing (prints the span tree\n"
      "                  after each statement)\n"
      "  \\trace --chrome FILE\n"
      "                  tracing on, and each statement's span tree is also\n"
      "                  written to FILE as Chrome trace-event JSON\n"
      "                  (load in chrome://tracing or ui.perfetto.dev)\n"
      "  \\snapshot PATH  persist the encrypted server catalog\n"
      "  \\quit           exit\n");
}

/// Kind heuristic for wire-fetched metric names: a StatsReply is untyped
/// (flat name/value pairs), so \history infers just enough to pick the
/// right rollups — quantile companions are derived levels, the leakage/alert
/// gauges are signed levels, everything else accumulates like a counter.
obs::MetricKind InferMetricKind(const std::string& name) {
  const auto ends_with = [&name](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with(".p50") || ends_with(".p95") || ends_with(".p99")) {
    return obs::MetricKind::kDerived;
  }
  if (name.rfind("leakage.", 0) == 0 || name.rfind("alerts.", 0) == 0) {
    return obs::MetricKind::kGauge;
  }
  return obs::MetricKind::kCounter;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;   // host:port of a mope_serverd, or empty = embedded
  std::string one_shot;  // -c SQL
  bool have_one_shot = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg == "-c" && i + 1 < argc) {
      one_shot = argv[++i];
      have_one_shot = true;
    } else {
      std::fprintf(stderr,
                   "usage: mope_shell [--connect HOST:PORT] [-c SQL]\n");
      return 2;
    }
  }

  workload::TpchConfig config;
  config.scale_factor = 0.002;
  const workload::TpchData data = workload::GenerateTpch(config);

  // Same seed as mope_serverd --tpch: in --connect mode this process
  // re-derives the exact key the server's ciphertexts were produced under.
  proxy::MopeSystem system(0x5811);
  proxy::EncryptedColumnSpec spec;
  spec.column = "l_shipdate";
  spec.domain = workload::kTpchDateDomain;
  spec.k = 30;
  spec.mode = proxy::QueryMode::kAdaptiveUniform;
  spec.batch_size = 64;
  Status status;
  if (connect.empty()) {
    status = system.LoadTable("lineitem", data.lineitem_schema, data.lineitem,
                              spec);
  } else {
    auto options = net::RemoteOptionsFor(connect);
    if (!options.ok()) {
      std::fprintf(stderr, "cannot connect: %s\n",
                   options.status().ToString().c_str());
      return 1;
    }
    status = system.AttachRemoteTable(
        "lineitem", spec,
        std::make_unique<net::RemoteConnection>(std::move(options).value()));
  }
  if (!status.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", status.ToString().c_str());
    return 1;
  }
  proxy::EncryptedSqlSession session(&system);
  status = session.AttachClientTable("part", data.part_schema, data.part);
  if (!status.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // \history state: a client-side ring-buffer sampler fed by wire-fetched
  // StatsReply snapshots (the daemon's own sampler is server-side; this one
  // gives the *proxy* operator history without any HTTP endpoint).
  obs::MetricsRegistry history_registry;
  obs::TimeSeriesOptions history_options;
  history_options.window_capacity = 64;
  obs::TimeSeriesSampler history(&history_registry, history_options);
  unsigned long long history_snapshots = 0;  // \history calls so far

  std::string chrome_path;  // non-empty: export each trace as Chrome JSON
  bool tracing = false;     // \trace toggle; gates the span-tree dump
  auto run = [&session, &chrome_path, &tracing](const std::string& sql) {
    auto result = session.Execute(sql);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    PrintResult(*result);
    const auto& stats = session.last_stats();
    std::printf(
        "[traffic: %llu real + %llu fake queries in %llu requests; "
        "%llu rows fetched]\n",
        static_cast<unsigned long long>(stats.real_queries),
        static_cast<unsigned long long>(stats.fake_queries),
        static_cast<unsigned long long>(stats.server_requests),
        static_cast<unsigned long long>(stats.rows_fetched));
    // EXPLAIN ANALYZE leaves a trace behind even when \trace is off (the
    // actuals need one); only dump the span tree when the user asked for it.
    if (tracing && session.last_trace() != nullptr) {
      std::printf("%s", session.last_trace()->RenderTree().c_str());
      if (!chrome_path.empty()) {
        std::ofstream out(chrome_path, std::ios::trunc);
        if (out) {
          out << obs::ExportChromeTrace(*session.last_trace());
          std::printf("[chrome trace written to %s]\n", chrome_path.c_str());
        } else {
          std::printf("error: cannot write %s\n", chrome_path.c_str());
        }
      }
    }
  };

  // Handles one input line — meta-command or SQL. Shared between the
  // interactive loop and `-c`, so scripts can fetch \serverstats too.
  auto handle_line = [&](const std::string& line) {
    if (line == "\\help") {
      PrintHelp();
    } else if (line == "\\stats") {
      auto proxy = system.GetProxy("lineitem", "l_shipdate");
      if (proxy.ok()) {
        const auto& totals = (*proxy)->totals();
        std::printf("session totals: %llu real, %llu fake, %llu requests, "
                    "%llu rows shipped\n",
                    static_cast<unsigned long long>(totals.real_queries_sent),
                    static_cast<unsigned long long>(totals.fake_queries_sent),
                    static_cast<unsigned long long>(totals.server_requests),
                    static_cast<unsigned long long>(totals.rows_received));
      }
    } else if (line == "\\serverstats") {
      auto proxy = system.GetProxy("lineitem", "l_shipdate");
      if (!proxy.ok()) {
        std::printf("error: %s\n", proxy.status().ToString().c_str());
        return;
      }
      auto stats = (*proxy)->FetchServerStats();
      if (!stats.ok()) {
        std::printf("error: %s\n", stats.status().ToString().c_str());
        return;
      }
      // The "queries" section first: request totals by kind and dispatch
      // latency quantiles, pulled out of the flat snapshot (the daemon's
      // /statusz renders the same section from the same counters).
      const auto lookup = [&stats](const char* name) -> unsigned long long {
        for (const auto& [n, v] : *stats) {
          if (n == name) return static_cast<unsigned long long>(v);
        }
        return 0;
      };
      std::printf(
          "queries: range_batch=%llu count_batch=%llu schema=%llu "
          "stats=%llu\n"
          "dispatch_ns: p50=%llu p95=%llu p99=%llu\n",
          lookup("server.requests.range_batch"),
          lookup("server.requests.count_batch"),
          lookup("server.requests.schema"), lookup("server.requests.stats"),
          lookup("server.dispatch_ns.p50"), lookup("server.dispatch_ns.p95"),
          lookup("server.dispatch_ns.p99"));
      std::printf("server metrics (%zu entries):\n", stats->size());
      for (const auto& [name, value] : *stats) {
        std::printf("  %-40s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
    } else if (line == "\\history" || line.rfind("\\history ", 0) == 0) {
      auto proxy = system.GetProxy("lineitem", "l_shipdate");
      if (!proxy.ok()) {
        std::printf("error: %s\n", proxy.status().ToString().c_str());
        return;
      }
      auto stats = (*proxy)->FetchServerStats();
      if (!stats.ok()) {
        std::printf("error: %s\n", stats.status().ToString().c_str());
        return;
      }
      // One wire snapshot = one sample of every server metric; repeated
      // \history calls are what build the series.
      const uint64_t now_ns = obs::SystemClock()->NowNanos();
      for (const auto& [name, value] : *stats) {
        history.Ingest(now_ns, name, InferMetricKind(name), value);
      }
      ++history_snapshots;
      std::string prefix;
      size_t window = 8;
      if (line.rfind("\\history ", 0) == 0) {
        const std::string rest = line.substr(sizeof("\\history ") - 1);
        const size_t space = rest.find(' ');
        prefix = rest.substr(0, space);
        if (space != std::string::npos) {
          const unsigned long n =
              std::strtoul(rest.c_str() + space + 1, nullptr, 10);
          if (n == 0 || n > history.max_window()) {
            std::printf("window must be in [1, %zu]\n", history.max_window());
            return;
          }
          window = n;
        }
      }
      if (prefix.empty()) {
        std::printf("snapshot ingested: %zu series, %llu snapshots held\n"
                    "usage: \\history PREFIX [N] prints matching series\n",
                    history.series_count(), history_snapshots);
        return;
      }
      auto views = history.Query(prefix, window);
      if (!views.ok()) {
        std::printf("error: %s\n", views.status().ToString().c_str());
        return;
      }
      for (const auto& view : *views) {
        std::printf("%s (%s):", view.name.c_str(),
                    obs::MetricKindName(view.kind));
        for (const auto& pt : view.points) {
          if (view.kind == obs::MetricKind::kGauge) {
            std::printf(" %lld", static_cast<long long>(pt.value));
          } else {
            std::printf(" %llu", static_cast<unsigned long long>(pt.value));
          }
        }
        std::printf("\n");
        const auto& r = view.rollup;
        if (view.kind == obs::MetricKind::kGauge) {
          std::printf("  [%zu samples  min=%lld max=%lld mean=%.6g]\n",
                      r.samples, static_cast<long long>(r.min),
                      static_cast<long long>(r.max), r.mean);
        } else if (view.kind == obs::MetricKind::kCounter) {
          std::printf("  [%zu samples  min=%llu max=%llu mean=%.6g "
                      "delta=%llu rate=%.6g/s]\n",
                      r.samples, static_cast<unsigned long long>(r.min),
                      static_cast<unsigned long long>(r.max), r.mean,
                      static_cast<unsigned long long>(r.delta),
                      r.rate_per_sec);
        } else {
          std::printf("  [%zu samples  min=%llu max=%llu mean=%.6g]\n",
                      r.samples, static_cast<unsigned long long>(r.min),
                      static_cast<unsigned long long>(r.max), r.mean);
        }
      }
    } else if (line.rfind("\\explain ", 0) == 0) {
      run("EXPLAIN ANALYZE " + line.substr(sizeof("\\explain ") - 1));
    } else if (line == "\\leakage" || line == "\\leakage on") {
      if (line == "\\leakage on") {
        if (!connect.empty()) {
          std::printf("the auditor runs inside the server: start "
                      "mope_serverd with --audit instead\n");
          return;
        }
        auto enabled = system.EnableLeakageAudit(spec.domain);
        if (!enabled.ok()) {
          std::printf("error: %s\n", enabled.ToString().c_str());
          return;
        }
        std::printf("leakage auditing on (server-side, ciphertext-only)\n");
        return;
      }
      auto proxy = system.GetProxy("lineitem", "l_shipdate");
      if (!proxy.ok()) {
        std::printf("error: %s\n", proxy.status().ToString().c_str());
        return;
      }
      // Same path \serverstats uses: the verdict is rendered from the
      // metrics snapshot, so it works identically embedded and remote.
      auto stats = (*proxy)->FetchServerStats();
      if (!stats.ok()) {
        std::printf("error: %s\n", stats.status().ToString().c_str());
        return;
      }
      std::printf("%s", obs::LeakageAuditor::DescribeStats(*stats).c_str());
    } else if (line == "\\trace" || line.rfind("\\trace --chrome ", 0) == 0) {
      if (line.rfind("\\trace --chrome ", 0) == 0) {
        chrome_path = line.substr(sizeof("\\trace --chrome ") - 1);
        if (chrome_path.empty()) {
          std::printf("usage: \\trace --chrome FILE\n");
          return;
        }
        tracing = true;
        session.EnableTracing();
        std::printf("tracing on; chrome trace JSON goes to %s\n",
                    chrome_path.c_str());
        return;
      }
      tracing = !tracing;
      if (tracing) {
        session.EnableTracing();
        std::printf("tracing on (span tree prints after each statement)\n");
      } else {
        session.DisableTracing();
        chrome_path.clear();
        std::printf("tracing off\n");
      }
    } else if (line == "\\rotate") {
      auto rotated = system.RotateKey("lineitem", "l_shipdate");
      if (rotated.ok()) {
        std::printf("re-encrypted %llu rows under a fresh key/offset\n",
                    static_cast<unsigned long long>(rotated.value()));
      } else {
        std::printf("error: %s\n", rotated.status().ToString().c_str());
      }
    } else if (line.rfind("\\snapshot ", 0) == 0) {
      if (!connect.empty()) {
        std::printf("\\snapshot needs the embedded server "
                    "(the data lives in mope_serverd)\n");
        return;
      }
      // The snapshot is pure ciphertext — safe to persist server-side.
      const std::string path = line.substr(10);
      auto saved = engine::SaveCatalog(*system.server()->catalog(), path);
      std::printf("%s\n", saved.ok()
                              ? ("saved encrypted catalog to " + path).c_str()
                              : saved.ToString().c_str());
    } else if (line == "\\tables") {
      std::printf("lineitem(l_orderkey, l_partkey, l_quantity, "
                  "l_extendedprice, l_discount, l_shipdate*, l_commitdate, "
                  "l_receiptdate, l_returnflag)   * = MOPE-encrypted\n"
                  "part(p_partkey, p_type, p_ispromo, p_retailprice)   "
                  "[client-side]\n");
    } else if (!line.empty() && line[0] == '\\') {
      std::printf("unknown meta-command %s (try \\help)\n", line.c_str());
    } else {
      run(line);
    }
  };

  if (have_one_shot) {
    handle_line(one_shot);
    return 0;
  }

  if (connect.empty()) {
    std::printf("mope_shell — %zu LINEITEM rows, l_shipdate MOPE-encrypted.\n",
                data.lineitem.size());
  } else {
    std::printf("mope_shell — proxying to mope_serverd at %s "
                "(l_shipdate MOPE-encrypted, key derived locally).\n",
                connect.c_str());
  }
  std::printf("Type \\help for help.\n");
  std::string line;
  while (true) {
    std::printf("mope> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "\\quit" || line == "\\q") break;
    handle_line(line);
  }
  return 0;
}
