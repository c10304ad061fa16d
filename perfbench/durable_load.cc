/// durable_load: set-up encrypts TPC-H SF 0.01 lineitem in memory; the
/// timed phase inserts those ciphertext rows, in seeded order, into a fresh
/// DbServer::OpenStorage directory on disk with the ciphertext column
/// indexed. Rows go in as commits of 500, each acknowledged by SyncStorage
/// with wal_sync_every = 0. After the load the server is dropped without a
/// checkpoint and OpenStorage recovers the directory. Storage and the
/// engine's write path do all the work.

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "engine/server.h"
#include "seams.h"
#include "workload/calendar.h"
#include "workloads.h"

namespace mope::perfbench {
namespace {

constexpr double kScaleFactor = 0.01;
constexpr size_t kRowsPerCommit = 500;
/// 1 MiB of 4 KiB pages, well under the ~8.5 MB the load writes.
constexpr size_t kPoolFrames = 256;
constexpr uint64_t kWarmupCommits = 10;
/// About 1.5 load-and-recover rounds of 120 commits per second on a 4-core
/// x86 box.
constexpr double kNominalRoundsPerS = 1.5;

struct Instance {
  engine::Schema schema;
  std::vector<engine::Row> rows;  ///< Ciphertext rows in load order.
  Digest expected;                ///< Every row, for the recovery check.
  double generate_s = 0;
  double load_encrypt_s = 0;
};

/// What one round measured.
struct Round {
  std::vector<double> commit_ms;
  double load_s = 0;
  uint64_t write_bytes = 0;
  double insert_ns = 0;  ///< Time in Table::Insert outside the Env seam.
  double write_ns = 0;   ///< Env writes inside Insert.
  double sync_ns = 0;    ///< SyncStorage, plus Env syncs inside Insert.
  uint64_t syncs = 0;
  std::map<std::string, uint64_t> storage_delta;
  double recovery_s = 0;
  double recovery_read_ns = 0;
  uint64_t recovery_read_bytes = 0;
  uint64_t stored_bytes = 0;
  double rss_mb = 0;  ///< ResidentMiB with the recovered server open.
};

Instance SetUp(uint64_t seed) {
  Instance inst;
  proxy::EncryptedColumnSpec spec;
  spec.column = "l_shipdate";
  spec.domain = workload::kTpchDateDomain;
  spec.k = 30;
  spec.mode = proxy::QueryMode::kUniform;
  EncryptedLineitem lineitem =
      LoadEncryptedLineitem(kScaleFactor, SubSeed(seed, 1), spec,
                            TemplateStarts(AllQ14Ranges(), spec.k), nullptr);
  inst.generate_s = lineitem.generate_s;
  inst.load_encrypt_s = lineitem.load_encrypt_s;
  auto table = lineitem.system->server()->catalog()->GetTable("lineitem");
  MOPE_CHECK(table.ok(), "encrypted table");
  inst.schema = (*table)->schema();
  for (engine::RowId rid = 0; rid < (*table)->row_count(); ++rid) {
    inst.rows.push_back((*table)->row(rid));
    inst.expected.Add(RowHash(inst.rows.back()));
  }
  Rng rng(SubSeed(seed, 4));
  rng.Shuffle(&inst.rows);
  return inst;
}

void ResetDir(const std::string& dir) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  MOPE_CHECK(std::filesystem::create_directories(dir, error) && !error,
             "create data directory");
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

engine::DurableCatalog::Options StorageOptions(storage::Env* env) {
  engine::DurableCatalog::Options options;
  options.pool_frames = kPoolFrames;
  options.wal_sync_every = 0;  // only SyncStorage flushes: one per commit
  options.env = env;
  return options;
}

/// Loads `commits` commits (all rows when 0) into a fresh directory, drops
/// the server without a checkpoint and recovers it. Every commit is an op.
Round LoadAndRecover(const Instance& inst, const std::string& dir,
                     uint64_t commits, obs::Clock* clock, Report* report) {
  ResetDir(dir);
  EnvAccount account;
  CountingEnv env(storage::Env::Posix(), &account, clock);
  Round round;
  {
    engine::DbServer server;
    MOPE_CHECK(server.OpenStorage(dir, StorageOptions(&env)).ok(),
               "open fresh storage");
    auto table = server.catalog()->CreateTable("lineitem", inst.schema);
    MOPE_CHECK(table.ok() && (*table)->CreateIndex("l_shipdate").ok() &&
                   server.SyncStorage().ok(),
               "create durable table");
    const Snapshot before = server.metrics()->Snapshot();
    const EnvAccount load_start = account;
    const uint64_t start = NowNs();
    for (size_t first = 0; first < inst.rows.size(); first += kRowsPerCommit) {
      if (commits != 0 && round.commit_ms.size() == commits) break;
      const size_t last = std::min(inst.rows.size(), first + kRowsPerCommit);
      const EnvAccount at_start = account;
      const uint64_t t0 = NowNs();
      bool ok = true;
      uint64_t insert_ns = 0;
      for (size_t i = first; i < last; ++i) {
        const ScopedTimer timer(clock, &insert_ns);
        ok = (*table)->Insert(inst.rows[i]).ok() && ok;
      }
      // Page write-backs, and the WAL fsyncs the write-ahead rule forces
      // when a dirty page is evicted, happen inside Insert.
      const EnvAccount in_insert = account;
      const uint64_t sync_start = NowNs();
      ok = server.SyncStorage().ok() && ok;
      const uint64_t t1 = NowNs();
      round.commit_ms.push_back(NsToMs(static_cast<double>(t1 - t0)));
      report->Op(ok);
      if (clock != nullptr) {
        const uint64_t write_ns = in_insert.write_ns - at_start.write_ns;
        const uint64_t forced_sync_ns = in_insert.sync_ns - at_start.sync_ns;
        round.insert_ns +=
            static_cast<double>(insert_ns - write_ns - forced_sync_ns);
        round.write_ns += static_cast<double>(write_ns);
        round.sync_ns += static_cast<double>(t1 - sync_start + forced_sync_ns);
      }
    }
    round.load_s = NsToS(static_cast<double>(NowNs() - start));
    round.write_bytes = account.write_bytes - load_start.write_bytes;
    round.syncs = account.syncs - load_start.syncs;
    round.storage_delta = CounterDelta(before, server.metrics()->Snapshot());
  }  // dropped without a checkpoint: recovery must replay the WAL

  const EnvAccount before_recovery = account;
  engine::DbServer recovered;
  const uint64_t t0 = NowNs();
  const Status opened = recovered.OpenStorage(dir, StorageOptions(&env));
  round.recovery_s = NsToS(static_cast<double>(NowNs() - t0));
  round.recovery_read_ns =
      static_cast<double>(account.read_ns - before_recovery.read_ns);
  round.recovery_read_bytes = account.read_bytes - before_recovery.read_bytes;
  Digest found;
  if (opened.ok()) {
    auto table = recovered.catalog()->GetTable("lineitem");
    if (table.ok()) {
      for (engine::RowId rid = 0; rid < (*table)->row_count(); ++rid) {
        found.Add(RowHash((*table)->row(rid)));
      }
    }
  }
  Digest acknowledged;
  if (commits == 0) {
    acknowledged = inst.expected;
  } else {
    for (size_t i = 0; i < std::min(inst.rows.size(), commits * kRowsPerCommit);
         ++i) {
      acknowledged.Add(RowHash(inst.rows[i]));
    }
  }
  if (!(found == acknowledged)) {
    report->Incorrect("recovery lost or changed acknowledged rows");
  }
  round.stored_bytes = DirBytes(dir);
  round.rss_mb = ResidentMiB();
  return round;
}

struct PassResult {
  std::vector<double> commit_ms;
  double load_s = 0;  ///< Wall time of the loads, recoveries excluded.
  std::vector<double> recovery_s;
  uint64_t rows = 0;
  double peak_rss_mb = 0;
  Round total;  ///< Sums over rounds.
};

/// Runs `rounds` load-and-recover rounds and adds them to `out`.
void RunRounds(const Instance& inst, const std::string& dir, uint64_t rounds,
               obs::Clock* clock, Report* report, PassResult* out) {
  for (uint64_t r = 0; r < rounds; ++r) {
    Round round = LoadAndRecover(inst, dir, 0, clock, report);
    out->commit_ms.insert(out->commit_ms.end(), round.commit_ms.begin(),
                          round.commit_ms.end());
    out->load_s += round.load_s;
    out->recovery_s.push_back(round.recovery_s);
    out->peak_rss_mb = std::max(out->peak_rss_mb, round.rss_mb);
    out->rows += inst.rows.size();
    Round& t = out->total;
    t.write_bytes += round.write_bytes;
    t.insert_ns += round.insert_ns;
    t.write_ns += round.write_ns;
    t.sync_ns += round.sync_ns;
    t.syncs += round.syncs;
    for (const auto& [name, value] : round.storage_delta) {
      t.storage_delta[name] += value;
    }
    t.recovery_read_ns += round.recovery_read_ns;
    t.recovery_read_bytes += round.recovery_read_bytes;
    t.recovery_s += round.recovery_s;
    t.stored_bytes += round.stored_bytes;
  }
  std::error_code error;
  std::filesystem::remove_all(dir, error);
}

}  // namespace

void RunDurableLoad(const RunOptions& options, Report* report,
                    Layers* layers) {
  MOPE_CHECK(!options.data_dir.empty(), "durable_load needs --data-dir");
  const uint64_t rounds = EpochOps(options.seconds, kNominalRoundsPerS, 1);
  std::vector<double> setup_s;
  PassResult plain;  // pooled over epochs
  Instance inst;
  for (int e = 0; e < (options.trace ? 1 : kEpochs); ++e) {
    inst = Instance();
    const uint64_t start = NowNs();
    inst = SetUp(options.seed);
    Report warmup;
    LoadAndRecover(inst, options.data_dir, kWarmupCommits, nullptr, &warmup);
    if (!warmup.correct()) report->Incorrect("warm-up load failed");
    setup_s.push_back(NsToS(static_cast<double>(NowNs() - start)));
    RunRounds(inst, options.data_dir, rounds, nullptr, report, &plain);
  }
  const double commits = static_cast<double>(plain.commit_ms.size());
  const double rows = static_cast<double>(plain.rows);
  if (!options.trace) {
    const PhaseStats stats = Summarize(plain.commit_ms, plain.load_s);
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("ops_per_s", stats.ops_per_s, "1/s");
    report->Metric("p50_ms", stats.p50_ms, "ms");
    report->Metric("p90_ms", stats.p90_ms, "ms");
    report->Metric("peak_rss_mb", plain.peak_rss_mb, "MiB");
    report->Metric("bytes_per_op",
                   static_cast<double>(plain.total.write_bytes) / commits,
                   "B");
    return;
  }

  PassResult traced;
  RunRounds(inst, options.data_dir, rounds, obs::SystemClock(), report,
            &traced);
  const Round& t = traced.total;
  const double n = static_cast<double>(traced.commit_ms.size());
  const double r = static_cast<double>(rounds);
  const double traced_rows = static_cast<double>(traced.rows);
  double commit_ns = 0;
  for (const double ms : traced.commit_ms) commit_ns += ms * 1e6;
  (*layers)["workload.generate_s"] = inst.generate_s;
  (*layers)["ope.load_encrypt_s"] = inst.load_encrypt_s;
  (*layers)["engine.insert_ms"] = NsToMs(t.insert_ns / n);
  (*layers)["storage.write_ms"] = NsToMs(t.write_ns / n);
  (*layers)["storage.sync_ms"] = NsToMs(t.sync_ns / n);
  (*layers)["storage.fsyncs"] = static_cast<double>(t.syncs) / n;
  (*layers)["storage.wal_bytes_per_row"] =
      static_cast<double>(t.storage_delta.at("storage.wal.bytes")) /
      traced_rows;
  (*layers)["storage.page_writes_per_row"] =
      static_cast<double>(t.storage_delta.at("storage.disk.page_writes")) /
      traced_rows;
  (*layers)["storage.pool_evictions"] =
      static_cast<double>(t.storage_delta.at("storage.pool.evictions")) / n;
  (*layers)["storage.recovery_read_ms"] = NsToMs(t.recovery_read_ns / r);
  (*layers)["storage.recovery_read_bytes"] =
      static_cast<double>(t.recovery_read_bytes) / r;
  (*layers)["engine.recovery_rebuild_ms"] =
      NsToMs((t.recovery_s * 1e9 - t.recovery_read_ns) / r);
  (*layers)["storage.recovery_s"] = Median(plain.recovery_s);
  (*layers)["storage.disk_bytes_per_row"] =
      static_cast<double>(plain.total.write_bytes) / rows;
  (*layers)["storage.stored_bytes_per_row"] =
      static_cast<double>(plain.total.stored_bytes) / rows;
  // Commit time outside Insert and SyncStorage: the benchmark's own loop.
  (*layers)["unattributed_pct"] =
      100.0 * (commit_ns - t.insert_ns - t.write_ns - t.sync_ns) / commit_ns;
  (*layers)["trace_overhead_pct"] =
      100.0 * (Median(traced.commit_ms) / Median(plain.commit_ms) - 1.0);
}

}  // namespace mope::perfbench
