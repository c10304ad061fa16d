/// server_replay: the untrusted server under the proxy's real traffic.
/// Set-up runs an encrypted TPC-H Q14 stream (k = 30, QueryU, batch_size 1)
/// once through a recording connection and keeps its ciphertext range
/// batches. The timed phase replays them over real TCP to an in-process
/// net::TcpServer (4 workers) from two client connections in a closed
/// loop, with the leakage auditor on. TPC-H SF 0.01. Net and engine do all
/// the work; OPE does none.

#include <dirent.h>
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/math_util.h"
#include "net/remote_connection.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/leakage.h"
#include "seams.h"
#include "workload/calendar.h"
#include "workloads.h"

namespace mope::perfbench {
namespace {

constexpr double kScaleFactor = 0.01;
constexpr uint64_t kK = 30;
constexpr int kClients = 2;
constexpr int kWorkers = 4;
constexpr uint64_t kWarmupPerClient = 200;
/// About 1,500 requests/s from two clients on a 4-core x86 box.
constexpr double kNominalOpsPerS = 1500.0;
/// net.p99_ms comes from one epoch and needs ten samples beyond it.
constexpr uint64_t kMinEpochOps = 1000;
/// The auditor's coverage confidence is 1 - (unseen starts) * (1 - 1/M)^n,
/// which exceeds its 0.999 alert level on a healthy uniform stream once
/// n > M ln 1000 (19,894 for the TPC-H date domain) and a single start is
/// still unseen. Below that no coverage alert is possible, so an epoch's
/// stream, warm-up included, stays under it.
constexpr uint64_t kMaxStream = 17000;
/// The audit check's chi-square significance. The auditor alerts at 0.01,
/// which a healthy stream's final window exceeds in one run of a hundred;
/// a broken mix scores far above either critical value.
constexpr double kAuditCheckAlpha = 1e-6;
/// Ops replayed directly on the engine in the traced run.
constexpr uint64_t kDirectReplayOps = 4000;

using Batch = std::vector<ModularInterval>;

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts thread `tid` of this process (0: the calling thread) to `cpu`.
void PinThread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

/// Ids of this process's threads.
std::set<pid_t> ThreadIds() {
  std::set<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') tids.insert(std::atoi(entry->d_name));
  }
  closedir(dir);
  return tids;
}

/// User plus system CPU time thread `tid` has used, in clock ticks.
uint64_t ThreadCpuTicks(pid_t tid) {
  std::ifstream file("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  std::getline(file, line);
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  std::istringstream fields(line.substr(line.rfind(')') + 1));
  std::string field;
  uint64_t ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtoull(field.c_str(), nullptr, 10);
  }
  return ticks;
}

/// Records the proxy's batches and answers them with no rows. QueryU's
/// ranges depend only on the proxy's coins, never on replies, so capture
/// costs neither an engine sweep nor a decryption.
class RecordingConnection final : public proxy::ServerConnection {
 public:
  RecordingConnection(engine::DbServer* server, std::vector<Batch>* batches)
      : direct_(server), batches_(batches) {}

  Result<std::vector<std::pair<engine::RowId, engine::Row>>> ExecuteRangeBatch(
      const std::string&, const std::string&,
      const std::vector<ModularInterval>& ranges) override {
    batches_->push_back(ranges);
    return std::vector<std::pair<engine::RowId, engine::Row>>();
  }
  Result<engine::Schema> GetSchema(const std::string& table) override {
    return direct_.GetSchema(table);
  }

 private:
  proxy::DirectConnection direct_;
  std::vector<Batch>* batches_;
};

struct Instance {
  EncryptedLineitem lineitem;
  std::vector<Batch> batches;    ///< The captured stream.
  std::vector<Digest> expected;  ///< Row-id set per captured batch.
  std::array<uint64_t, kClients> offsets{};
  uint64_t ops_per_client[kClients] = {};
  /// CPU of client c and of the worker serving its connection; empty
  /// when the process may run on fewer than kClients CPUs and threads are
  /// left unpinned.
  std::vector<int> cpus;
  std::set<pid_t> server_threads;  ///< Listener and workers.
  std::unique_ptr<net::TcpServer> tcp;
};

/// Client connections, each used by one load thread.
struct Clients {
  std::unique_ptr<obs::MetricsRegistry> registry =
      std::make_unique<obs::MetricsRegistry>();
  /// Time blocked in each client's transport (traced clients only).
  std::unique_ptr<std::array<uint64_t, kClients>> socket =
      std::make_unique<std::array<uint64_t, kClients>>();
  std::vector<std::unique_ptr<net::RemoteConnection>> connections;
};

bool Matches(const Result<net::RowsWithIds>& reply, const Digest& expected) {
  if (!reply.ok()) return false;
  Digest digest;
  for (const auto& [rid, row] : *reply) digest.Add(rid);
  return digest == expected;
}

/// The op index of client `c`'s i-th request, warm-up included.
size_t OpIndex(const Instance& inst, int c, uint64_t i) {
  return static_cast<size_t>((inst.offsets[c] + i) % inst.batches.size());
}

Instance SetUp(uint64_t seed, uint64_t ops) {
  Instance inst;
  proxy::EncryptedColumnSpec spec;
  spec.column = "l_shipdate";
  spec.domain = workload::kTpchDateDomain;
  spec.k = kK;
  spec.mode = proxy::QueryMode::kUniform;
  spec.batch_size = 1;
  std::vector<Batch>* batches = &inst.batches;
  inst.lineitem = LoadEncryptedLineitem(
      kScaleFactor, SubSeed(seed, 1), spec, TemplateStarts(AllQ14Ranges(), kK),
      [batches](proxy::MopeSystem* system) {
        system->set_connection_factory(
            [server = system->server(), batches]()
                -> Result<std::unique_ptr<proxy::ServerConnection>> {
              return std::unique_ptr<proxy::ServerConnection>(
                  std::make_unique<RecordingConnection>(server, batches));
            });
      });

  const uint64_t stream = ops + kClients * kWarmupPerClient;
  Rng rng(SubSeed(seed, 2));
  while (inst.batches.size() < stream) {
    auto response = inst.lineitem.system->Query(
        "lineitem", "l_shipdate", workload::SampleQ14(&rng).shipdate);
    MOPE_CHECK(response.ok(), "Q14 capture");
  }
  inst.batches.resize(stream);

  engine::DbServer* server = inst.lineitem.system->server();
  const CipherIndex index(*server, "lineitem", "l_shipdate");
  for (const Batch& batch : inst.batches) {
    inst.expected.push_back(index.Expected(batch));
  }
  MOPE_CHECK(inst.lineitem.system
                 ->EnableLeakageAudit(workload::kTpchDateDomain)
                 .ok(),
             "leakage audit");

  // The clients' slices partition the stream from a seeded start, so the
  // server sees the captured stream once: overlapping slices would repeat
  // starts, which the auditor rightly flags as a coverage deficit.
  Rng offsets(SubSeed(seed, 3));
  uint64_t next = offsets.UniformUint64(stream);
  for (int c = 0; c < kClients; ++c) {
    inst.ops_per_client[c] = ops / kClients + (c == 0 ? ops % kClients : 0);
    inst.offsets[c] = next;
    next += kWarmupPerClient + inst.ops_per_client[c];
  }
  net::TcpServerOptions tcp_options;
  tcp_options.num_workers = kWorkers;
  const std::set<pid_t> before = ThreadIds();
  auto tcp = net::TcpServer::Start(server, tcp_options);
  MOPE_CHECK(tcp.ok(), "tcp server start");
  for (const pid_t tid : ThreadIds()) {
    if (before.count(tid) == 0) inst.server_threads.insert(tid);
  }
  if (const std::vector<int> cpus = AllowedCpus(); cpus.size() >= static_cast<size_t>(kClients)) {
    inst.cpus.assign(cpus.end() - kClients, cpus.end());
  }
  inst.tcp = std::move(tcp).value();
  return inst;
}

/// Client c sends requests [first[c], last[c]) of its slice, each client
/// on its own thread, all starting together.
struct LoadResult {
  std::vector<double> latency_ms;
  uint64_t failed = 0;
  double wall_s = 0;
};

LoadResult Load(const Instance& inst, Clients* clients,
                const std::array<uint64_t, kClients>& first,
                const std::array<uint64_t, kClients>& last) {
  std::array<std::vector<double>, kClients> latency;
  std::array<uint64_t, kClients> failed{};
  const uint64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&inst, clients, &first, &last, &latency, &failed, c] {
      if (!inst.cpus.empty()) PinThread(0, inst.cpus[c]);
      net::RemoteConnection* connection = clients->connections[c].get();
      for (uint64_t i = first[c]; i < last[c]; ++i) {
        const size_t op = OpIndex(inst, c, i);
        const uint64_t t0 = NowNs();
        auto reply = connection->ExecuteRangeBatch("lineitem", "l_shipdate",
                                                   inst.batches[op]);
        latency[c].push_back(NsToMs(static_cast<double>(NowNs() - t0)));
        if (!Matches(reply, inst.expected[op])) ++failed[c];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoadResult out;
  out.wall_s = NsToS(static_cast<double>(NowNs() - start));
  for (int c = 0; c < kClients; ++c) {
    out.latency_ms.insert(out.latency_ms.end(), latency[c].begin(),
                          latency[c].end());
    out.failed += failed[c];
  }
  return out;
}

/// The server thread that used the most CPU since `before` (a snapshot of
/// ThreadCpuTicks for every server thread).
pid_t BusiestSince(const std::map<pid_t, uint64_t>& before) {
  pid_t busiest = 0;
  uint64_t most = 0;
  for (const auto& [tid, ticks] : before) {
    const uint64_t now = ThreadCpuTicks(tid);
    const uint64_t used = now > ticks ? now - ticks : 0;
    if (busiest == 0 || used > most) {
      busiest = tid;
      most = used;
    }
  }
  return busiest;
}

/// Connects each client once and sends the warm-up requests.
Clients Connect(const Instance& inst, bool traced, Report* report) {
  Clients clients;
  for (int c = 0; c < kClients; ++c) {
    net::RemoteOptions options;
    options.port = inst.tcp->port();
    options.max_retries = 0;  // a failure is a failed op, never a backoff
    options.backoff_initial_ms = 0;
    options.registry = clients.registry.get();
    uint64_t* socket = traced ? &(*clients.socket)[c] : nullptr;
    options.transport_factory =
        [port = options.port, socket_options = options.socket,
         socket]() -> Result<std::unique_ptr<net::Transport>> {
      MOPE_ASSIGN_OR_RETURN(std::unique_ptr<net::SocketTransport> tcp,
                            net::ConnectTcp("127.0.0.1", port, socket_options));
      if (socket == nullptr) {
        return std::unique_ptr<net::Transport>(std::move(tcp));
      }
      return std::unique_ptr<net::Transport>(std::make_unique<TimedTransport>(
          std::move(tcp), socket, obs::SystemClock()));
    };
    clients.connections.push_back(
        std::make_unique<net::RemoteConnection>(std::move(options)));
    MOPE_CHECK(clients.connections[c]->GetSchema("lineitem").ok(),
               "client connect");
  }
  // Each client and the worker serving its connection share one CPU, so a
  // request and its reply never wait for a thread on another CPU to wake:
  // on a virtual machine whose CPUs the host preempts, such cross-CPU
  // wake-ups stall ops for milliseconds and made runs bimodal. The two
  // workers still contend for the dispatcher on two CPUs. Clients warm up
  // one at a time, so the server thread that works during client c's
  // warm-up is its connection's worker.
  for (int c = 0; c < kClients; ++c) {
    std::map<pid_t, uint64_t> ticks;
    for (const pid_t tid : inst.server_threads) {
      ticks[tid] = ThreadCpuTicks(tid);
    }
    std::array<uint64_t, kClients> first{}, last{};
    last[c] = kWarmupPerClient;
    if (Load(inst, &clients, first, last).failed > 0) {
      report->Incorrect("warm-up request answered wrongly");
    }
    if (!inst.cpus.empty()) PinThread(BusiestSince(ticks), inst.cpus[c]);
  }
  *clients.socket = {};
  return clients;
}

struct PassResult {
  std::vector<double> latency_ms;
  double wall_s = 0;
  uint64_t failed = 0;
  double socket_ns = 0;
  std::map<std::string, uint64_t> server_delta;
  std::map<std::string, uint64_t> client_delta;
};

/// One epoch's timed phase: both clients replay their slice in a closed
/// loop.
PassResult Replay(const Instance& inst, Clients* clients, Report* report) {
  engine::DbServer* server = inst.lineitem.system->server();
  const Snapshot server_before = server->metrics()->Snapshot();
  const Snapshot client_before = clients->registry->Snapshot();
  std::array<uint64_t, kClients> first{}, last{};
  for (int c = 0; c < kClients; ++c) {
    first[c] = kWarmupPerClient;
    last[c] = kWarmupPerClient + inst.ops_per_client[c];
  }
  LoadResult load = Load(inst, clients, first, last);
  PassResult out;
  out.latency_ms = std::move(load.latency_ms);
  out.wall_s = load.wall_s;
  out.failed = load.failed;
  for (int c = 0; c < kClients; ++c) {
    out.socket_ns += static_cast<double>((*clients->socket)[c]);
  }
  out.server_delta = CounterDelta(server_before, server->metrics()->Snapshot());
  out.client_delta = CounterDelta(client_before, clients->registry->Snapshot());
  // A client retry fails its op too; with max_retries = 0 there are none.
  const uint64_t attempted = out.latency_ms.size();
  report->Ops(attempted,
              std::min<uint64_t>(attempted,
                                 out.failed +
                                     out.client_delta.at("net.client.retries")));
  obs::LeakageAuditor* auditor = server->leakage_auditor();
  const obs::LeakageVerdict verdict = auditor->Verdict();
  const double chi2_limit = ChiSquareCriticalValue(
      static_cast<double>(auditor->config().buckets - 1), kAuditCheckAlpha);
  if (verdict.confidence > auditor->config().confidence_alert ||
      verdict.chi2 > chi2_limit) {
    report->Incorrect("the server-observed stream does not look like QueryU");
  }
  return out;
}

/// Direct timed calls on the first ops' batches: the engine sweep on an
/// auditor-free copy of the table, the reply encode on its rows, and the
/// auditor's per-batch work. Returns per-op milliseconds.
struct DirectCosts {
  double sweep_ms = 0;
  double encode_ms = 0;
  double audit_ms = 0;
};

DirectCosts ReplayDirect(const Instance& inst, Report* report) {
  engine::DbServer* served = inst.lineitem.system->server();
  engine::DbServer copy;
  {
    auto source = served->catalog()->GetTable("lineitem");
    MOPE_CHECK(source.ok(), "served table");
    auto table = copy.catalog()->CreateTable("lineitem", (*source)->schema());
    MOPE_CHECK(table.ok(), "copy table");
    for (engine::RowId rid = 0; rid < (*source)->row_count(); ++rid) {
      MOPE_CHECK((*table)->Insert((*source)->row(rid)).ok(), "copy row");
    }
    MOPE_CHECK((*table)->CreateIndex("l_shipdate").ok(), "copy index");
  }
  obs::MetricsRegistry audit_registry;
  auto auditor = obs::LeakageAuditor::Create(
      served->leakage_auditor()->config(), &audit_registry);
  MOPE_CHECK(auditor.ok(), "auditor");

  double sweep_ns = 0, encode_ns = 0, audit_ns = 0;
  uint64_t n = 0;
  for (int c = 0; c < kClients; ++c) {
    const uint64_t count =
        std::min(inst.ops_per_client[c], kDirectReplayOps / kClients);
    for (uint64_t i = 0; i < count; ++i, ++n) {
      const Batch& batch = inst.batches[OpIndex(inst, c, kWarmupPerClient + i)];
      uint64_t t0 = NowNs();
      auto rows = copy.ExecuteRangeBatchWithIds("lineitem", "l_shipdate", batch);
      sweep_ns += static_cast<double>(NowNs() - t0);
      if (!rows.ok()) {
        report->Incorrect("direct engine replay failed");
        continue;
      }
      t0 = NowNs();
      const std::string frame = net::EncodeFrame(
          net::MessageType::kRangeBatchReply, net::EncodeRangeBatchReply(*rows));
      encode_ns += static_cast<double>(NowNs() - t0);
      if (frame.empty()) report->Incorrect("empty reply frame");
      t0 = NowNs();
      for (const ModularInterval& range : batch) {
        (*auditor)->ObserveStart(range.start());
      }
      (*auditor)->Publish();
      audit_ns += static_cast<double>(NowNs() - t0);
    }
  }
  const double ops = static_cast<double>(n);
  return DirectCosts{NsToMs(sweep_ns / ops), NsToMs(encode_ns / ops),
                     NsToMs(audit_ns / ops)};
}

}  // namespace

void RunServerReplay(const RunOptions& options, Report* report,
                     Layers* layers) {
  const uint64_t ops =
      std::min(EpochOps(options.seconds, kNominalOpsPerS, kMinEpochOps),
               kMaxStream - kClients * kWarmupPerClient);
  std::vector<double> setup_s;
  std::vector<double> latency_ms;  // pooled over epochs
  double wall_s = 0, wire_bytes = 0, peak_rss_mb = 0;
  PassResult plain;  // the last epoch's
  Instance inst;
  Clients clients;
  for (int e = 0; e < (options.trace ? 1 : kEpochs); ++e) {
    clients = Clients();  // closes the previous epoch's connections first
    inst = Instance();
    const uint64_t start = NowNs();
    inst = SetUp(options.seed, ops);
    clients = Connect(inst, /*traced=*/false, report);
    setup_s.push_back(NsToS(static_cast<double>(NowNs() - start)));
    plain = Replay(inst, &clients, report);
    peak_rss_mb = std::max(peak_rss_mb, ResidentMiB());
    latency_ms.insert(latency_ms.end(), plain.latency_ms.begin(),
                      plain.latency_ms.end());
    wall_s += plain.wall_s;
    wire_bytes +=
        static_cast<double>(plain.server_delta.at("engine.bytes_received") +
                            plain.server_delta.at("engine.bytes_sent"));
  }
  if (!options.trace) {
    const PhaseStats stats = Summarize(latency_ms, wall_s);
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("ops_per_s", stats.ops_per_s, "1/s");
    report->Metric("p50_ms", stats.p50_ms, "ms");
    report->Metric("p90_ms", stats.p90_ms, "ms");
    report->Metric("peak_rss_mb", peak_rss_mb, "MiB");
    report->Metric("bytes_per_op",
                   wire_bytes / static_cast<double>(latency_ms.size()), "B");
    return;
  }

  // Traced run: the same op sequence again, through timed transports, on a
  // fresh set-up whose auditor has not seen the stream yet.
  clients = Clients();
  inst = Instance();
  inst = SetUp(options.seed, ops);
  clients = Connect(inst, /*traced=*/true, report);
  const PassResult traced = Replay(inst, &clients, report);
  clients = Clients();
  const DirectCosts direct = ReplayDirect(inst, report);

  const auto p99 = Percentile(plain.latency_ms, 0.99, 10);
  MOPE_CHECK(p99.has_value(), "p99 needs ten samples beyond it");
  double op_ns = 0;
  for (const double ms : traced.latency_ms) op_ns += ms * 1e6;
  const double n = static_cast<double>(traced.latency_ms.size());
  const double dispatch_ms =
      NsToMs(static_cast<double>(traced.server_delta.at("server.dispatch_ns.sum")) /
             static_cast<double>(traced.server_delta.at("server.dispatch_ns.count")));
  const auto per_op = [&traced, n](const char* name) {
    return static_cast<double>(traced.server_delta.at(name)) / n;
  };
  (*layers)["workload.generate_s"] = inst.lineitem.generate_s;
  (*layers)["ope.load_encrypt_s"] = inst.lineitem.load_encrypt_s;
  (*layers)["net.client_ms"] = NsToMs((op_ns - traced.socket_ns) / n);
  (*layers)["net.socket_wait_ms"] = NsToMs(traced.socket_ns / n);
  (*layers)["net.dispatch_ms"] = dispatch_ms;
  (*layers)["engine.sweep_ms"] = direct.sweep_ms;
  (*layers)["net.reply_encode_ms"] = direct.encode_ms;
  (*layers)["obs.audit_ms"] = direct.audit_ms;
  (*layers)["net.lock_wait_ms"] =
      dispatch_ms - direct.sweep_ms - direct.encode_ms - direct.audit_ms;
  (*layers)["engine.rows_returned"] = per_op("engine.rows_returned");
  (*layers)["engine.entries_visited"] = per_op("engine.entries_visited");
  (*layers)["engine.index_nodes_visited"] = per_op("engine.index_nodes_visited");
  (*layers)["net.retries"] =
      static_cast<double>(traced.client_delta.at("net.client.retries"));
  (*layers)["net.p99_ms"] = *p99;
  // Socket time outside the server's dispatch is kernel, socket plumbing
  // and waiting for a worker: no src/ layer times it.
  (*layers)["unattributed_pct"] =
      100.0 * (traced.socket_ns - dispatch_ms * 1e6 * n) / op_ns;
  (*layers)["trace_overhead_pct"] =
      100.0 * (Median(traced.latency_ms) / Median(plain.latency_ms) - 1.0);
}

}  // namespace mope::perfbench
