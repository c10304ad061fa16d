/// analyst_q6: one analyst in a closed loop sends TPC-H Q6 year ranges
/// through MopeSystem::Query. The proxy runs QueryU (k = 365, batch_size
/// 1000) over the in-process wire: WireDispatcher + InProcessChannel +
/// RemoteConnection, no sockets, TPC-H SF 0.002. OPE encrypt and decrypt
/// are most of each op; storage is absent.

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "net/dispatcher.h"
#include "net/inmem.h"
#include "net/remote_connection.h"
#include "seams.h"
#include "workload/calendar.h"
#include "workloads.h"

namespace mope::perfbench {
namespace {

constexpr double kScaleFactor = 0.002;
constexpr uint64_t kK = 365;
constexpr size_t kBatchSize = 1000;
constexpr uint64_t kWarmupOps = 1;
/// About 110 ms per query on a 4-core x86 box.
constexpr double kNominalOpsPerS = 9.0;
/// The epochs pool 100 latencies: p90 needs ten samples beyond it.
constexpr uint64_t kMinEpochOps = 20;

/// What the timing seams saw in the traced pass.
struct Seams {
  uint64_t connection_ns = 0;  ///< Whole range batches, proxy side.
  uint64_t transport_ns = 0;   ///< Frame bytes; reads pump the dispatcher.
  std::vector<std::vector<ModularInterval>> batches;  ///< Of the current op.
};

/// The plaintext answer to one Q6 range.
struct Answer {
  Digest digest;
  uint64_t distinct_keys = 0;
};

struct Instance {
  std::unique_ptr<Seams> seams;  ///< Set in the traced pass only.
  EncryptedLineitem lineitem;
  std::vector<query::RangeQuery> ops;  ///< Warm-up ops first.
  std::map<uint64_t, Answer> answers;  ///< By range start.
  double setup_s = 0;
};

/// The proxy's connection over the in-process wire. The plain pass uses the
/// library's own net::MakeLoopbackWireConnection; the traced pass builds
/// the same connection (one InProcessChannel transport for its lifetime)
/// with the timing wrappers around the transport and the connection.
std::unique_ptr<proxy::ServerConnection> MakeWireConnection(
    engine::DbServer* server, Seams* seams) {
  if (seams == nullptr) return net::MakeLoopbackWireConnection(server);
  auto dispatcher = std::make_shared<net::WireDispatcher>(server);
  auto channel = std::make_shared<net::InProcessChannel>(dispatcher.get());
  net::RemoteOptions options;
  options.max_retries = 0;
  options.backoff_initial_ms = 0;
  // The factory owns dispatcher and channel for the connection's lifetime.
  options.transport_factory =
      [dispatcher, channel, seams]() -> Result<std::unique_ptr<net::Transport>> {
    return std::unique_ptr<net::Transport>(std::make_unique<TimedTransport>(
        channel->NewTransport(), &seams->transport_ns, obs::SystemClock()));
  };
  return std::make_unique<TimedConnection>(
      std::make_unique<net::RemoteConnection>(std::move(options)),
      &seams->connection_ns, obs::SystemClock(), &seams->batches);
}

bool Matches(const Result<proxy::QueryResponse>& response,
             const Answer& answer) {
  if (!response.ok()) return false;
  Digest digest;
  for (const engine::Row& row : response->rows) digest.Add(RowHash(row));
  return digest == answer.digest;
}

/// Epoch `epoch` of a run: its own key and coins, and its own slice of the
/// run's query sequence, so the epochs together run kEpochs * ops distinct
/// queries.
Instance SetUp(uint64_t seed, int epoch, bool traced) {
  Instance inst;
  if (traced) inst.seams = std::make_unique<Seams>();

  proxy::EncryptedColumnSpec spec;
  spec.column = "l_shipdate";
  spec.domain = workload::kTpchDateDomain;
  spec.k = kK;
  spec.mode = proxy::QueryMode::kUniform;
  spec.batch_size = kBatchSize;
  Seams* seams = inst.seams.get();
  inst.lineitem = LoadEncryptedLineitem(
      kScaleFactor, SubSeed(seed, 16 + epoch), spec,
      TemplateStarts(AllQ6Ranges(), kK),
      [seams](proxy::MopeSystem* system) {
        system->set_connection_factory(
            [server = system->server(), seams]()
                -> Result<std::unique_ptr<proxy::ServerConnection>> {
              return MakeWireConnection(server, seams);
            });
      });

  const auto& schema = inst.lineitem.data.lineitem_schema;
  auto ship_col = schema.IndexOf("l_shipdate");
  MOPE_CHECK(ship_col.ok(), "l_shipdate column");
  for (const query::RangeQuery& q : AllQ6Ranges()) {
    Answer& answer = inst.answers[q.first];
    std::set<int64_t> keys;
    for (const engine::Row& row : inst.lineitem.data.lineitem) {
      const int64_t day = std::get<int64_t>(row[*ship_col]);
      if (day < static_cast<int64_t>(q.first) ||
          day > static_cast<int64_t>(q.last)) {
        continue;
      }
      answer.digest.Add(RowHash(row));
      keys.insert(day);
    }
    answer.distinct_keys = keys.size();
  }
  return inst;
}

/// Draws the epoch's slice of the op sequence, runs the warm-up and stamps
/// the set-up time.
void Prepare(Instance* inst, uint64_t seed, int epoch, uint64_t timed_ops,
             uint64_t setup_start_ns, Report* report) {
  Rng rng(SubSeed(seed, 2));
  const uint64_t first = static_cast<uint64_t>(epoch) * (kWarmupOps + timed_ops);
  for (uint64_t i = 0; i < first + kWarmupOps + timed_ops; ++i) {
    const query::RangeQuery q = workload::SampleQ6(&rng).shipdate;
    if (i >= first) inst->ops.push_back(q);
  }
  for (uint64_t i = 0; i < kWarmupOps; ++i) {
    const query::RangeQuery& q = inst->ops[i];
    if (!Matches(inst->lineitem.system->Query("lineitem", "l_shipdate", q),
                 inst->answers.at(q.first))) {
      report->Incorrect("warm-up query answered wrongly");
    }
  }
  if (inst->seams != nullptr) *inst->seams = Seams();
  inst->setup_s = NsToS(static_cast<double>(NowNs() - setup_start_ns));
}

/// Plain pass: the end-to-end numbers.
struct PlainResult {
  std::vector<double> latency_ms;
  double wall_s = 0;
  uint64_t wire_bytes = 0;
};

PlainResult RunPlain(Instance* inst, Report* report) {
  PlainResult out;
  engine::DbServer* server = inst->lineitem.system->server();
  const Snapshot before = server->metrics()->Snapshot();
  const uint64_t start = NowNs();
  for (size_t i = kWarmupOps; i < inst->ops.size(); ++i) {
    const query::RangeQuery& q = inst->ops[i];
    const uint64_t t0 = NowNs();
    auto response = inst->lineitem.system->Query("lineitem", "l_shipdate", q);
    out.latency_ms.push_back(NsToMs(static_cast<double>(NowNs() - t0)));
    report->Op(Matches(response, inst->answers.at(q.first)));
  }
  out.wall_s = NsToS(static_cast<double>(NowNs() - start));
  const auto delta = CounterDelta(before, server->metrics()->Snapshot());
  out.wire_bytes = delta.at("engine.bytes_received") +
                   delta.at("engine.bytes_sent");
  return out;
}

/// Traced pass: the same ops with the trace active and the seams timing.
void RunTraced(Instance* inst, double plain_p50_ms, Report* report,
               Layers* layers) {
  proxy::MopeSystem* system = inst->lineitem.system.get();
  engine::DbServer* server = system->server();
  Seams* seams = inst->seams.get();
  CounterTotals client;
  CounterTotals engine_counts;
  std::vector<double> op_ms;
  double op_ns = 0, sample_ns = 0, encrypt_ns = 0, decrypt_ns = 0;
  double connection_ns = 0, transport_ns = 0, sweep_ns = 0;
  uint64_t distinct_keys = 0;
  for (size_t i = kWarmupOps; i < inst->ops.size(); ++i) {
    const query::RangeQuery& q = inst->ops[i];
    const Snapshot client_before = system->metrics()->Snapshot();
    const Snapshot server_before = server->metrics()->Snapshot();
    const uint64_t connection_before = seams->connection_ns;
    const uint64_t transport_before = seams->transport_ns;
    seams->batches.clear();

    obs::Trace trace("analyst_q6");
    uint64_t t0 = 0, t1 = 0;
    Result<proxy::QueryResponse> response = Status::Unavailable("not run");
    {
      const obs::ScopedTraceActivation activation(&trace);
      t0 = NowNs();
      response = system->Query("lineitem", "l_shipdate", q);
      t1 = NowNs();
    }
    const Answer& answer = inst->answers.at(q.first);
    report->Op(Matches(response, answer));
    client.Add(CounterDelta(client_before, system->metrics()->Snapshot()));
    engine_counts.Add(CounterDelta(server_before, server->metrics()->Snapshot()));

    const auto self = SpanSelfNanos(trace.spans());
    const auto span_ns = [&self](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : static_cast<double>(it->second);
    };
    op_ns += static_cast<double>(t1 - t0);
    op_ms.push_back(NsToMs(static_cast<double>(t1 - t0)));
    sample_ns += span_ns("proxy.sample");
    encrypt_ns += span_ns("proxy.encrypt");
    decrypt_ns += span_ns("proxy.decrypt_filter");
    connection_ns +=
        static_cast<double>(seams->connection_ns - connection_before);
    transport_ns += static_cast<double>(seams->transport_ns - transport_before);
    distinct_keys += answer.distinct_keys;

    // The engine's share of the dispatch: the same batches, called directly.
    for (const auto& batch : seams->batches) {
      const uint64_t s0 = NowNs();
      auto rows = server->ExecuteRangeBatchWithIds("lineitem", "l_shipdate",
                                                   batch);
      sweep_ns += static_cast<double>(NowNs() - s0);
      if (!rows.ok()) report->Incorrect("direct engine replay failed");
    }
  }

  const double ops = static_cast<double>(op_ms.size());
  const double spans_ns = sample_ns + encrypt_ns + decrypt_ns;
  const double proxy_self_ns = op_ns - spans_ns - connection_ns;
  (*layers)["query.sample_ms"] = NsToMs(sample_ns / ops);
  (*layers)["ope.encrypt_ms"] = NsToMs(encrypt_ns / ops);
  (*layers)["ope.decrypt_ms"] = NsToMs(decrypt_ns / ops);
  (*layers)["ope.hgd_draws"] = client.PerOp("ope.hgd_draws");
  (*layers)["ope.encrypt_calls"] = client.PerOp("ope.encrypt_calls");
  (*layers)["ope.decrypt_calls"] = client.PerOp("ope.decrypt_calls");
  (*layers)["ope.decrypts_per_distinct"] =
      static_cast<double>(client.Total("ope.decrypt_calls")) /
      static_cast<double>(distinct_keys);
  (*layers)["net.client_ms"] = NsToMs((connection_ns - transport_ns) / ops);
  (*layers)["net.dispatch_ms"] = NsToMs((transport_ns - sweep_ns) / ops);
  (*layers)["engine.sweep_ms"] = NsToMs(sweep_ns / ops);
  (*layers)["engine.rows_returned"] =
      engine_counts.PerOp("engine.rows_returned");
  (*layers)["engine.entries_visited"] =
      engine_counts.PerOp("engine.entries_visited");
  (*layers)["query.fakes_per_real"] =
      static_cast<double>(client.Total("proxy.fake_queries")) /
      static_cast<double>(client.Total("proxy.real_queries"));
  (*layers)["proxy.self_ms"] = NsToMs(proxy_self_ns / ops);
  (*layers)["proxy.rows_shipped_per_row"] =
      static_cast<double>(client.Total("proxy.rows_received")) /
      static_cast<double>(client.Total("proxy.rows_returned"));
  // No span or seam covers the proxy's own bookkeeping, so here the
  // unattributed share is proxy.self_ms's share.
  (*layers)["unattributed_pct"] = 100.0 * proxy_self_ns / op_ns;
  (*layers)["trace_overhead_pct"] =
      100.0 * (Median(op_ms) / plain_p50_ms - 1.0);
}

}  // namespace

void RunAnalystQ6(const RunOptions& options, Report* report, Layers* layers) {
  const uint64_t ops = EpochOps(options.seconds, kNominalOpsPerS, kMinEpochOps);
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  PlainResult plain;  // pooled over epochs
  Instance inst;
  for (int e = 0; e < (options.trace ? 1 : kEpochs); ++e) {
    inst = Instance();  // frees the previous set-up before the next one
    const uint64_t start = NowNs();
    inst = SetUp(options.seed, e, /*traced=*/false);
    Prepare(&inst, options.seed, e, ops, start, report);
    setup_s.push_back(inst.setup_s);
    const PlainResult epoch = RunPlain(&inst, report);
    peak_rss_mb = std::max(peak_rss_mb, ResidentMiB());
    plain.latency_ms.insert(plain.latency_ms.end(), epoch.latency_ms.begin(),
                            epoch.latency_ms.end());
    plain.wall_s += epoch.wall_s;
    plain.wire_bytes += epoch.wire_bytes;
  }
  if (!options.trace) {
    const PhaseStats stats = Summarize(plain.latency_ms, plain.wall_s);
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("ops_per_s", stats.ops_per_s, "1/s");
    report->Metric("p50_ms", stats.p50_ms, "ms");
    report->Metric("p90_ms", stats.p90_ms, "ms");
    report->Metric("peak_rss_mb", peak_rss_mb, "MiB");
    report->Metric("bytes_per_op",
                   static_cast<double>(plain.wire_bytes) /
                       static_cast<double>(plain.latency_ms.size()),
                   "B");
    return;
  }
  (*layers)["workload.generate_s"] = inst.lineitem.generate_s;
  (*layers)["ope.load_encrypt_s"] = inst.lineitem.load_encrypt_s;
  inst = Instance();
  const uint64_t start = NowNs();
  inst = SetUp(options.seed, 0, /*traced=*/true);
  Prepare(&inst, options.seed, 0, ops, start, report);
  RunTraced(&inst, Median(plain.latency_ms), report, layers);
}

}  // namespace mope::perfbench
