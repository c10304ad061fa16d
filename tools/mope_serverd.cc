/// mope_serverd — the untrusted database server as a standalone TCP daemon.
///
/// Runs engine::DbServer behind the wire protocol (src/net/), turning the
/// paper's Figure 4 into two real processes: this daemon holds only
/// ciphertext, the trusted proxy (e.g. `mope_shell --connect`) holds the
/// keys and talks to it over TCP. The daemon never sees a key: it serves
/// either a snapshot file (pure ciphertext, written by `\snapshot` in the
/// shell) or a freshly generated TPC-H table encrypted in-process and then
/// treated as opaque.
///
/// Usage:
///   mope_serverd --snapshot PATH [--host H] [--port N] [--workers N]
///   mope_serverd --tpch [--scale F] [--seed N] [--host H] [--port N]
///   mope_serverd (--snapshot PATH | --tpch) --data-dir DIR [...]
///
/// --data-dir attaches the disk-backed storage engine (src/storage/): every
/// mutation is write-ahead logged to DIR/wal.log, and a checkpoint writes
/// the whole catalog image to DIR/storage.meta. A DIR that already holds
/// data is recovered on startup — the image is loaded and the WAL replayed
/// on top — and served as-is (the --snapshot/--tpch source is then only a
/// bootstrap for an empty DIR). Both files hold the same MOPE ciphertexts
/// the in-memory catalog does; kill -9 never costs more than a WAL replay
/// plus an index rebuild, and never a re-encryption.
///
/// Observability:
///   - Every operational message is a structured log line (src/obs/log.h)
///     on stderr: `ts_ns=... level=... subsystem=... event=... k=v`.
///     --log-json switches to JSON lines; --log-level sets the floor.
///   - --http-port starts the HTTP exposition endpoint (GET /metrics in
///     Prometheus text format, /healthz, /statusz) on a second port.
///   - --metrics dumps the registry to stderr at shutdown; --metrics-out
///     atomically writes the same Prometheus text to a file instead.
///   - --slow-query-ms logs a per-span breakdown for any request that
///     exceeds the threshold, and --slow-query-trace additionally exports
///     the request's Chrome trace (chrome://tracing) with the same trace
///     id, WAL and checkpoint spans included.
///   - --checkpoint-every N checkpoints the storage engine every N
///     data-bearing requests, putting storage.wal.* / storage.checkpoint
///     work (and spans) on the serving path. Each checkpoint rewrites the
///     whole catalog image, so its cost grows with the row count.
///   - --query-log-sample N traces every Nth data-bearing request the way
///     a client's EXPLAIN ANALYZE does and logs it as a structured
///     `event=query` line with every counter the request credited. The
///     reply is unchanged: only a client that asked gets a profile.
///   - --sample-every-ms N keeps in-process metric history (ring buffers,
///     fixed memory budget) served as JSON on GET /vars; --alert-rule /
///     --default-alerts evaluate declarative rules over those samples and
///     expose firing state on GET /alertz plus edge-triggered `event=alert`
///     log lines.
///   - --blackbox FILE runs a crash flight recorder: the last trace/log
///     events persist on request boundaries (survives kill -9) and fatal
///     signals append an async-signal-safe dump to FILE.fatal;
///     --dump-blackbox FILE pretty-prints either postmortem.
///
/// With --tpch, a proxy process built with the *same seed* (default 0x5811,
/// matching mope_shell) re-derives the identical MOPE key from its own rng
/// and can query the data without any key exchange.
///
/// SIGINT/SIGTERM shut down gracefully: in-flight requests complete,
/// replies flush, then the daemon logs its traffic counters and exits.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include <vector>

#include "engine/snapshot.h"
#include "net/http_exposition.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/alerts.h"
#include "obs/flight_recorder.h"
#include "obs/leakage.h"
#include "obs/log.h"
#include "obs/timeseries.h"
#include "ope/ope.h"
#include "proxy/system.h"
#include "storage/env.h"
#include "workload/tpch.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

/// Fatal-signal handler: dump the flight recorder's rings, then re-raise
/// with the default disposition so the process still dies with the right
/// status. Linter rule R13 restricts this body to the async-signal-safe
/// flight-recorder dump API (no logging, no allocation).
void HandleFatalSignal(int signo) {
  if (mope::obs::FlightRecorder* recorder =
          mope::obs::FlightRecorder::Installed()) {
    recorder->FatalSignalDump(signo);
  }
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

void PrintUsage(const char* argv0) {
  // Usage text goes to the raw stream, not the structured log: it is the
  // program's interactive answer to --help, not an operational event.
  std::fprintf(  // invariant-ok: R11 usage/help text
      stderr,
      "usage: %s (--snapshot PATH | --tpch) [options]\n"
      "  --snapshot PATH     serve an encrypted catalog snapshot\n"
      "  --tpch              generate + encrypt a TPC-H lineitem table\n"
      "  --scale F           TPC-H scale factor (default 0.002)\n"
      "  --seed N            key/proxy seed for --tpch (default 0x5811)\n"
      "  --host H            bind address (default 127.0.0.1)\n"
      "  --port N            TCP port; 0 picks an ephemeral one (default "
      "5811)\n"
      "  --workers N         worker threads (default 4)\n"
      "  --data-dir DIR      disk-backed storage: WAL + checkpoint live in "
      "DIR; an\n"
      "                      existing DIR is recovered (WAL replay) and "
      "served,\n"
      "                      a fresh one is seeded from --snapshot/--tpch\n"
      "  --http-port N       HTTP exposition endpoint (GET /metrics "
      "Prometheus\n"
      "                      text, /healthz, /statusz); 0 = ephemeral\n"
      "  --slow-query-ms N   log a span breakdown for requests slower than "
      "N ms\n"
      "  --slow-query-trace FILE  also export the offending request's "
      "Chrome\n"
      "                      trace (atomic write; same trace id as the log "
      "line)\n"
      "  --checkpoint-every N  checkpoint storage every N data requests\n"
      "  --query-log-sample N  trace every Nth data-bearing request and "
      "log\n"
      "                      it as a structured event=query line carrying "
      "the\n"
      "                      counters it credited (0 = off)\n"
      "  --metrics           dump the metrics registry at shutdown\n"
      "  --metrics-out FILE  atomically write the Prometheus text dump to "
      "FILE\n"
      "                      at shutdown\n"
      "  --log-json          JSON-lines log format instead of key=value\n"
      "  --log-level LEVEL   debug|info|warn|error (default info)\n"
      "  --audit             live leakage auditor over the observed "
      "ciphertext\n"
      "                      range stream; leakage.* gauges join the stats\n"
      "                      endpoint (shell: \\leakage)\n"
      "  --audit-domain M    plaintext domain the audited column was "
      "declared\n"
      "                      with (default: the TPC-H date domain); needed "
      "so\n"
      "                      --snapshot mode knows the public parameter M\n"
      "  --sample-every-ms N time-series sampler: snapshot the registry "
      "every\n"
      "                      N ms into in-process ring buffers (GET /vars)\n"
      "  --alert-rule RULE   add one alert rule (repeatable), e.g.\n"
      "                      'p99_slow: server.dispatch_ns.p99 > 1000000 "
      "for 3';\n"
      "                      implies --sample-every-ms 1000 unless set\n"
      "  --default-alerts    add the built-in rule set (gap convergence,\n"
      "                      chi-square criticality, dispatch p99, WAL\n"
      "                      fsync stalls); implies sampling too\n"
      "  --blackbox FILE     crash flight recorder: persist the last trace/"
      "log\n"
      "                      events to FILE on request boundaries and dump "
      "to\n"
      "                      FILE.fatal from fatal-signal handlers\n"
      "  --dump-blackbox FILE  read a black box (+ .fatal sibling) written "
      "by\n"
      "                      --blackbox, print it sorted, and exit\n",
      argv0);
}

/// Flag-parse diagnostics also predate the configured logger; they stay on
/// the raw stream next to the usage text they accompany.
void FlagError(const char* fmt, const char* detail) {
  std::fprintf(stderr, fmt, detail);  // invariant-ok: R11 usage/help text
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mope;  // NOLINT

  std::string snapshot_path;
  std::string data_dir;
  std::string metrics_out;
  bool tpch = false;
  bool dump_metrics = false;
  bool audit = false;
  bool http_enabled = false;
  uint16_t http_port = 0;
  uint64_t audit_domain = workload::kTpchDateDomain;
  double slow_query_ms = 0;  // fractional ms OK: 0.001 = 1us threshold
  std::string slow_query_trace;
  uint64_t checkpoint_every = 0;
  uint64_t query_log_sample = 0;
  uint64_t sample_every_ms = 0;
  std::vector<std::string> alert_rules;
  bool default_alerts = false;
  std::string blackbox_path;
  std::string dump_blackbox_path;
  double scale = 0.002;
  uint64_t seed = 0x5811;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  bool log_json = false;
  net::TcpServerOptions options;
  options.port = 5811;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        FlagError("%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--snapshot") {
      snapshot_path = next();
    } else if (arg == "--data-dir") {
      data_dir = next();
    } else if (arg == "--tpch") {
      tpch = true;
    } else if (arg == "--scale") {
      scale = std::atof(next());
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--host") {
      options.host = next();
    } else if (arg == "--port") {
      // Strict, unlike atoi, which would wrap 70000 to another port and
      // turn garbage into 0 (ephemeral).
      const char* raw = next();
      const Result<uint16_t> port = net::ParsePort(raw);
      if (!port.ok()) {
        FlagError("--port must be an integer in [0, 65535], got '%s'\n", raw);
        return 2;
      }
      options.port = *port;
    } else if (arg == "--workers") {
      options.num_workers = std::atoi(next());
    } else if (arg == "--http-port") {
      const char* raw = next();
      const Result<uint16_t> port = net::ParsePort(raw);
      if (!port.ok()) {
        FlagError("--http-port must be an integer in [0, 65535], got '%s'\n",
                  raw);
        return 2;
      }
      http_port = *port;
      http_enabled = true;
    } else if (arg == "--slow-query-ms") {
      slow_query_ms = std::atof(next());
    } else if (arg == "--slow-query-trace") {
      slow_query_trace = next();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--query-log-sample") {
      query_log_sample = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--metrics") {
      dump_metrics = true;
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--log-json") {
      log_json = true;
    } else if (arg == "--log-level") {
      const char* raw = next();
      if (!obs::ParseLogLevel(raw, &log_level)) {
        FlagError("--log-level must be debug|info|warn|error, got '%s'\n",
                  raw);
        return 2;
      }
    } else if (arg == "--sample-every-ms") {
      sample_every_ms = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--alert-rule") {
      alert_rules.emplace_back(next());
    } else if (arg == "--default-alerts") {
      default_alerts = true;
    } else if (arg == "--blackbox") {
      blackbox_path = next();
    } else if (arg == "--dump-blackbox") {
      dump_blackbox_path = next();
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--audit-domain") {
      audit_domain = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    } else {
      FlagError("unknown flag %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    }
  }
  // Reader mode: print a previously written black box and exit. This is a
  // postmortem tool, not a daemon run, so none of the serving flags apply.
  if (!dump_blackbox_path.empty()) {
    const Result<std::string> dump = obs::FlightRecorder::FormatDump(
        storage::Env::Posix(), dump_blackbox_path);
    if (!dump.ok()) {
      FlagError("--dump-blackbox failed: %s\n",
                dump.status().ToString().c_str());
      return 1;
    }
    // The requested data dump, not an operational event; exempt like the
    // usage text.
    std::fprintf(stdout, "%s",  // invariant-ok: R11 --dump-blackbox output
                 dump.value().c_str());
    return 0;
  }
  if (snapshot_path.empty() == !tpch) {
    FlagError("pick exactly one of --snapshot or --tpch\n", "");
    PrintUsage(argv[0]);
    return 2;
  }
  // Alert rules need samples to evaluate against; turn the sampler on at a
  // 1s default cadence rather than silently doing nothing.
  if ((default_alerts || !alert_rules.empty()) && sample_every_ms == 0) {
    sample_every_ms = 1000;
  }

  // Configure the process logger before the first loggable event. From here
  // on every message in the process — including the library layers — flows
  // through the single ranked sink, so startup lines and worker-thread
  // connection events never interleave mid-line.
  obs::Logger* logger = obs::Logger::Default();
  logger->SetMinLevel(log_level);
  logger->SetFormat(log_json ? obs::LogFormat::kJson : obs::LogFormat::kText);

  // The daemon's engine. In --tpch mode a throwaway MopeSystem does the
  // data-owner work (key draw + encryption) in-process; its embedded server
  // is then served as-is — the daemon code below never touches the key.
  engine::DbServer standalone;
  std::unique_ptr<proxy::MopeSystem> system;
  engine::DbServer* server = &standalone;
  if (tpch) {
    system = std::make_unique<proxy::MopeSystem>(seed);
    server = system->server();
  }
  logger->SetDropCounterRegistry(server->metrics());

  // Storage attaches before any data load: the catalog is still empty, so
  // recovery can repopulate it, and a subsequent import flows through the
  // durability hooks (WAL-first) instead of bypassing them.
  bool recovered_data = false;
  if (!data_dir.empty()) {
    const Status attached = server->OpenStorage(data_dir);
    if (!attached.ok()) {
      MOPE_LOG(kError, "main", "storage_open_failed")
          .Arg("data_dir", data_dir)
          .Arg("status", attached.ToString());
      return 1;
    }
    const size_t tables = server->catalog()->TableNames().size();
    recovered_data = tables > 0;
    if (recovered_data) {
      MOPE_LOG(kInfo, "main", "recovered")
          .Arg("tables", tables)
          .Arg("data_dir", data_dir)
          .Arg("crash_recovery",
               server->durable_catalog()->recovered_from_crash());
    }
  }

  if (recovered_data) {
    // The durable state wins; --snapshot/--tpch only seed an empty dir.
  } else if (!snapshot_path.empty()) {
    auto loaded = engine::LoadCatalog(snapshot_path);
    if (!loaded.ok()) {
      MOPE_LOG(kError, "main", "snapshot_load_failed")
          .Arg("path", snapshot_path)
          .Arg("status", loaded.status().ToString());
      return 1;
    }
    if (server->has_storage()) {
      // Replay through the hooked catalog so every row is WAL-logged.
      const Status imported =
          engine::ImportCatalog(*loaded, server->catalog());
      if (!imported.ok()) {
        MOPE_LOG(kError, "main", "snapshot_import_failed")
            .Arg("path", snapshot_path)
            .Arg("status", imported.ToString());
        return 1;
      }
    } else {
      *standalone.catalog() = std::move(loaded).value();
    }
    MOPE_LOG(kInfo, "main", "serving_snapshot").Arg("path", snapshot_path);
  } else {
    workload::TpchConfig config;
    config.scale_factor = scale;
    const workload::TpchData data = workload::GenerateTpch(config);
    proxy::EncryptedColumnSpec spec;
    spec.column = "l_shipdate";
    spec.domain = workload::kTpchDateDomain;
    spec.k = 30;
    spec.mode = proxy::QueryMode::kAdaptiveUniform;
    spec.batch_size = 64;
    const Status status = system->LoadTable("lineitem", data.lineitem_schema,
                                            data.lineitem, spec);
    if (!status.ok()) {
      MOPE_LOG(kError, "main", "tpch_load_failed")
          .Arg("status", status.ToString());
      return 1;
    }
    MOPE_LOG(kInfo, "main", "serving_tpch")
        .Arg("rows", data.lineitem.size())
        .Arg("seed", seed);
  }

  if (server->has_storage() && !recovered_data) {
    // Make the freshly imported data cheap to reopen: write the catalog
    // image, truncate the WAL.
    const Status cp = server->CheckpointStorage();
    if (!cp.ok()) {
      MOPE_LOG(kError, "main", "checkpoint_failed")
          .Arg("data_dir", data_dir)
          .Arg("status", cp.ToString());
      return 1;
    }
    MOPE_LOG(kInfo, "main", "checkpointed").Arg("data_dir", data_dir);
  }

  if (audit) {
    // The daemon is the untrusted party, so it configures the auditor from
    // public parameters only: the declared plaintext domain M and the
    // ciphertext range derived from it. No key, no plaintexts.
    obs::LeakageAuditConfig audit_config;
    audit_config.domain = audit_domain;
    audit_config.space = ope::SuggestRange(audit_domain);
    const Status enabled = server->EnableLeakageAudit(audit_config);
    if (!enabled.ok()) {
      MOPE_LOG(kError, "main", "audit_enable_failed")
          .Arg("status", enabled.ToString());
      return 1;
    }
    MOPE_LOG(kInfo, "main", "audit_on")
        .Arg("domain", audit_domain)
        .Arg("space", audit_config.space);
  }

  // Crash flight recorder first: once installed, the trace/log hooks and
  // the dispatcher's request-boundary persistence start feeding it, so the
  // earliest serving events are already in the rings.
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!blackbox_path.empty()) {
    obs::FlightRecorder::Options recorder_options;
    recorder_options.path = blackbox_path;
    recorder = std::make_unique<obs::FlightRecorder>(
        storage::Env::Posix(), recorder_options, nullptr, server->metrics());
    const Status prepared = recorder->PrepareFatalDump();
    if (!prepared.ok()) {
      MOPE_LOG(kError, "main", "blackbox_prepare_failed")
          .Arg("path", blackbox_path)
          .Arg("status", prepared.ToString());
      return 1;
    }
    obs::FlightRecorder::Install(recorder.get());
    std::signal(SIGSEGV, HandleFatalSignal);
    std::signal(SIGABRT, HandleFatalSignal);
    std::signal(SIGBUS, HandleFatalSignal);
    std::signal(SIGILL, HandleFatalSignal);
    std::signal(SIGFPE, HandleFatalSignal);
    MOPE_LOG(kInfo, "main", "blackbox_on").Arg("path", blackbox_path);
  }

  // Alert engine + time-series sampler. The sampler pushes each snapshot
  // into the engine, so the engine must outlive the sampler; both hang off
  // the server's registry.
  std::unique_ptr<obs::AlertEngine> alert_engine;
  if (default_alerts || !alert_rules.empty()) {
    alert_engine = std::make_unique<obs::AlertEngine>(server->metrics());
    if (default_alerts) alert_engine->AddDefaultRules();
    for (const std::string& spec : alert_rules) {
      const Status added = alert_engine->AddRuleSpec(spec);
      if (!added.ok()) {
        FlagError("--alert-rule rejected: %s\n", added.ToString().c_str());
        return 2;
      }
    }
    MOPE_LOG(kInfo, "main", "alerts_on")
        .Arg("rules", static_cast<uint64_t>(alert_engine->rule_count()));
  }
  std::unique_ptr<obs::TimeSeriesSampler> sampler;
  if (sample_every_ms > 0) {
    obs::TimeSeriesOptions sampler_options;
    sampler_options.sample_period_ns = sample_every_ms * 1'000'000;
    sampler = std::make_unique<obs::TimeSeriesSampler>(server->metrics(),
                                                       sampler_options);
    sampler->SetAlertEngine(alert_engine.get());
    sampler->Start();
    MOPE_LOG(kInfo, "main", "sampler_on")
        .Arg("period_ms", sample_every_ms)
        .Arg("window", static_cast<uint64_t>(sampler->max_window()));
  }

  // Slow-query instrumentation and periodic checkpointing ride the
  // dispatcher options; the trace export (if any) goes through the Env seam
  // so the write is atomic.
  options.dispatcher.slow_query_threshold_ns =
      static_cast<uint64_t>(slow_query_ms * 1e6);
  options.dispatcher.slow_query_trace_path = slow_query_trace;
  options.dispatcher.trace_env = storage::Env::Posix();
  options.dispatcher.checkpoint_every = checkpoint_every;
  options.dispatcher.query_log_sample = query_log_sample;

  auto daemon = net::TcpServer::Start(server, options);
  if (!daemon.ok()) {
    MOPE_LOG(kError, "main", "start_failed")
        .Arg("status", daemon.status().ToString());
    return 1;
  }
  MOPE_LOG(kInfo, "main", "listening")
      .Arg("host", options.host)
      .Arg("port", static_cast<uint64_t>((*daemon)->port()));

  std::unique_ptr<net::HttpExposition> http;
  if (http_enabled) {
    net::HttpExpositionOptions http_options;
    http_options.host = options.host;
    http_options.port = http_port;
    http = std::make_unique<net::HttpExposition>(server, http_options);
    http->AttachTimeSeries(sampler.get());
    http->AttachAlerts(alert_engine.get());
    const Status started = http->Start();
    if (!started.ok()) {
      MOPE_LOG(kError, "main", "http_start_failed")
          .Arg("status", started.ToString());
      return 1;
    }
    MOPE_LOG(kInfo, "main", "http_listening")
        .Arg("host", http_options.host)
        .Arg("port", static_cast<uint64_t>(http->port()));
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  MOPE_LOG(kInfo, "main", "shutting_down");
  if (http != nullptr) http->Stop();
  if (sampler != nullptr) sampler->Stop();
  (*daemon)->Stop();
  if (recorder != nullptr) {
    // Final persist, then uninstall before teardown so no late logging
    // thread records into a dying recorder.
    const Status persisted = recorder->Persist();
    if (!persisted.ok()) {
      MOPE_LOG(kWarn, "main", "blackbox_persist_failed")
          .Arg("status", persisted.ToString());
    }
    obs::FlightRecorder::Install(nullptr);
  }
  if (server->has_storage()) {
    // Clean-shutdown checkpoint: the next start loads the image instead of
    // replaying the WAL.
    const Status cp = server->CheckpointStorage();
    if (!cp.ok()) {
      MOPE_LOG(kError, "main", "shutdown_checkpoint_failed")
          .Arg("status", cp.ToString());
    }
  }

  const engine::ServerStats stats = server->stats();
  MOPE_LOG(kInfo, "main", "stats")
      .Arg("connections", (*daemon)->connections_accepted())
      .Arg("shed", (*daemon)->connections_rejected())
      .Arg("frames", (*daemon)->frames_served())
      .Arg("bytes_in", stats.bytes_received)
      .Arg("bytes_out", stats.bytes_sent);
  if (!metrics_out.empty()) {
    const Status written = storage::Env::Posix()->WriteFileAtomic(
        metrics_out, server->metrics()->RenderText());
    if (!written.ok()) {
      MOPE_LOG(kError, "main", "metrics_out_failed")
          .Arg("path", metrics_out)
          .Arg("status", written.ToString());
      return 1;
    }
    MOPE_LOG(kInfo, "main", "metrics_written").Arg("path", metrics_out);
  }
  if (dump_metrics) {
    // A data dump on request, not an operational event; exempt like the
    // usage text.
    std::fprintf(stderr, "%s",  // invariant-ok: R11 --metrics dump
                 server->metrics()->RenderText().c_str());
  }
  return 0;
}
