/// Allocation gate for the range-batch reply path.
///
/// One batch over a lineitem-shaped table ships about 15k rows, of which
/// the proxy's ciphertext filter keeps about 1 in 8.6 — the shape of one
/// analyst_q6 reply (QueryU pays its Sec. 6 bandwidth in rows the proxy
/// drops). The bench loads the table, then drives the reply through its
/// stages:
///
///   table_load            Table::Insert of every lineitem row: each row is
///                         encoded once into the table's byte arena, which
///                         grows by realloc (outside this count; its page
///                         faults are in the fault column);
///   server_dispatch       WireDispatcher::HandleFrameBytes: sweep the
///                         index into the dispatcher's kept id list, size
///                         the reply from the rows' stored lengths, then
///                         write each row as its header plus one memcpy,
///                         CRC included, into the previous reply's buffer
///                         as a session does;
///   client_filtered_fetch RemoteConnection::FetchRangeBatch on that frame:
///                         read into the connection's receive buffer,
///                         CRC-check and check every byte in one pointer
///                         pass, build only the kept rows (what the proxy
///                         calls);
///   client_full_decode    RemoteConnection::ExecuteRangeBatch on that
///                         frame: the same, building every row;
///   proxy_execute_range   one Q6-year MopeSystem::Query over the loopback
///                         wire (QueryU, k = 365, batch 1000) after one
///                         warm-up query: sampling, encryption, the three
///                         stages above, and the proxy's dedup and decrypt
///                         of the kept rows.
///
/// The client side reads the frame from a transport that replays the
/// server's bytes, so each stage's allocations are its own. The gated
/// measurement is heap allocations per inserted row (table_load), per
/// shipped row (the three reply stages) and per returned row
/// (proxy_execute_range) (alloc_counter.h): exactly reproducible, so the
/// committed baseline holds to the last allocation and the 2% CI threshold
/// trips on any per-row allocation that comes back. The query's count is
/// taken on a system built from fixed seeds, twice, and the two counts must
/// agree. Wall time and minor page faults per call (getrusage) are printed,
/// not gated: a reply buffer the heap hands back to the kernel shows up as
/// faults on the next call.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"
#include "bench/tpch_util.h"
#include "common/random.h"
#include "engine/server.h"
#include "net/dispatcher.h"
#include "net/remote_connection.h"
#include "net/wire.h"
#include "workload/calendar.h"
#include "workload/tpch.h"

namespace mope {
namespace {

/// ~15.6k LINEITEM rows; the one range below covers them all.
constexpr double kScaleFactor = 0.0026;
constexpr uint64_t kDomain = workload::kTpchDateDomain;
/// The proxy keeps rows whose l_shipdate lies in [0, kDomain / 8.6).
constexpr uint64_t kKeepLength = kDomain * 10 / 86;
constexpr int kTimeReps = 15;
/// proxy_execute_range: analyst_q6's proxy settings and one fixed year.
constexpr uint64_t kQ6K = 365;
constexpr size_t kQ6Batch = 1000;
constexpr uint64_t kQ6Seed = 0x5EED;
constexpr int kQ6Year = 1994;

/// Serves one fixed reply frame to every request: the client's view of a
/// server that sent exactly these bytes.
class ReplayTransport final : public net::Transport {
 public:
  explicit ReplayTransport(const std::string* frame) : frame_(frame) {}

  Result<size_t> Read(char* buf, size_t max) override {
    const size_t n = std::min(max, frame_->size() - pos_);
    frame_->copy(buf, n, pos_);
    pos_ += n;
    if (pos_ == frame_->size()) pos_ = 0;  // the next request's reply
    return n;
  }
  Status Write(const char*, size_t) override { return Status::OK(); }
  void Close() override {}

 private:
  const std::string* frame_;
  size_t pos_ = 0;
};

double TrimmedMean(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t trim = xs.size() / 5;  // drop the bottom and top 20%
  double sum = 0.0;
  for (size_t i = trim; i < xs.size() - trim; ++i) sum += xs[i];
  return sum / static_cast<double>(xs.size() - 2 * trim);
}

/// Minor page faults of this process so far.
uint64_t MinorFaults() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

struct Stage {
  const char* name;
  uint64_t allocs = 0;  ///< Per call.
  double ms = 0.0;      ///< Trimmed mean per call.
  double faults = 0.0;  ///< Minor page faults per timed call.
};

/// Times `run` over kTimeReps calls after one warm-up, counting their minor
/// page faults.
template <typename Run>
Stage Time(const char* name, const Run& run) {
  Stage stage{name};
  run();
  std::vector<double> times;
  const uint64_t faults_before = MinorFaults();
  for (int rep = 0; rep < kTimeReps; ++rep) {
    bench::Stopwatch watch;
    run();
    times.push_back(watch.ElapsedMs());
  }
  stage.faults = static_cast<double>(MinorFaults() - faults_before) / kTimeReps;
  stage.ms = TrimmedMean(std::move(times));
  return stage;
}

/// Time, then counts one call's allocations twice; the two counts must
/// agree.
template <typename Run>
Stage Measure(const char* name, const Run& run) {
  Stage stage = Time(name, run);
  for (int pass = 0; pass < 2; ++pass) {
    const uint64_t before = bench::Allocations();
    run();
    const uint64_t allocs = bench::Allocations() - before;
    MOPE_CHECK(pass == 0 || allocs == stage.allocs,
               "reply-path allocation count must be deterministic");
    stage.allocs = allocs;
  }
  return stage;
}

/// One Q6-year query's allocations, and the rows it returned, on a system
/// built from fixed seeds and warmed by the same query once.
struct QueryCount {
  uint64_t allocs = 0;
  uint64_t rows = 0;
};

QueryCount CountOneQuery(proxy::MopeSystem* system,
                         const query::RangeQuery& q) {
  MOPE_CHECK(system->Query("lineitem", "l_shipdate", q).ok(), "warm-up");
  const uint64_t before = bench::Allocations();
  auto response = system->Query("lineitem", "l_shipdate", q);
  const uint64_t allocs = bench::Allocations() - before;
  MOPE_CHECK(response.ok() && !response->rows.empty(), "Q6 query");
  return {allocs, response->rows.size()};
}

}  // namespace
}  // namespace mope

int main() {
  using namespace mope;  // NOLINT

  workload::TpchConfig config;
  config.scale_factor = kScaleFactor;
  const workload::TpchData data = workload::GenerateTpch(config);
  engine::DbServer server;
  auto table = server.catalog()->CreateTable("lineitem", data.lineitem_schema);
  MOPE_CHECK(table.ok(), "lineitem table");
  const uint64_t load_faults_before = MinorFaults();
  const uint64_t load_allocs_before = bench::Allocations();
  for (const engine::Row& row : data.lineitem) {
    MOPE_CHECK((*table)->Insert(row).ok(), "lineitem insert");
  }
  const uint64_t load_allocs = bench::Allocations() - load_allocs_before;
  const uint64_t load_faults = MinorFaults() - load_faults_before;
  const uint64_t loaded = data.lineitem.size();
  MOPE_CHECK((*table)->CreateIndex("l_shipdate").ok(), "lineitem index");

  const std::vector<ModularInterval> ranges = {
      ModularInterval(0, kDomain, kDomain)};
  const ModularInterval keep(0, kKeepLength, kDomain);
  const size_t key_column = workload::tpch_cols::kLShipDate;

  net::WireDispatcher dispatcher(&server);
  const std::string request = net::EncodeFrame(
      net::MessageType::kRangeBatchRequest,
      net::EncodeRangeBatchRequest({"lineitem", "l_shipdate", ranges}));
  std::string reply;
  const auto dispatch = [&] {
    size_t consumed = 0;
    auto frame = dispatcher.HandleFrameBytes(request, &consumed,
                                             std::move(reply));
    MOPE_CHECK(frame.ok(), "dispatch");
    reply = std::move(frame).value();
  };
  const Stage server_stage = Measure("server_dispatch", dispatch);

  net::RemoteOptions options;
  options.max_retries = 0;
  options.transport_factory =
      [&reply]() -> Result<std::unique_ptr<net::Transport>> {
    return std::unique_ptr<net::Transport>(
        std::make_unique<ReplayTransport>(&reply));
  };
  net::RemoteConnection connection(std::move(options));
  uint64_t shipped = 0;
  uint64_t kept = 0;
  const Stage filtered_stage = Measure("client_filtered_fetch", [&] {
    net::RowsWithIds rows;
    auto n = connection.FetchRangeBatch("lineitem", "l_shipdate", ranges,
                                        key_column, keep, &rows);
    MOPE_CHECK(n.ok(), "filtered fetch");
    shipped = *n;
    kept = rows.size();
  });
  const Stage full_stage = Measure("client_full_decode", [&] {
    auto rows = connection.ExecuteRangeBatch("lineitem", "l_shipdate", ranges);
    MOPE_CHECK(rows.ok() && rows->size() == shipped, "full decode");
  });

  Rng starts_rng(kQ6Seed);
  const dist::Distribution starts = bench::TemplateStarts(
      [](mope::BitSource* rng) { return workload::SampleQ6(rng).shipdate; },
      kQ6K, 1000, &starts_rng);
  const query::RangeQuery q6{
      workload::TpchDayIndex(workload::CivilDate{kQ6Year, 1, 1}),
      workload::TpchDayIndex(workload::CivilDate{kQ6Year + 1, 1, 1}) - 1};
  QueryCount query_count;
  std::unique_ptr<proxy::MopeSystem> system;
  for (int pass = 0; pass < 2; ++pass) {
    system = bench::MakeEncryptedLineitem(data, starts, kQ6K, /*period=*/0,
                                          kQ6Batch, kQ6Seed,
                                          /*via_wire=*/true);
    const QueryCount count = CountOneQuery(system.get(), q6);
    MOPE_CHECK(pass == 0 || (count.allocs == query_count.allocs &&
                             count.rows == query_count.rows),
               "query allocation count must be deterministic");
    query_count = count;
  }
  // Each query draws fresh fakes, so the later ones are timed, not counted.
  const Stage query_stage = Time("proxy_execute_range", [&] {
    MOPE_CHECK(system->Query("lineitem", "l_shipdate", q6).ok(),
               "timed Q6 query");
  });

  std::printf(
      "Range-batch reply path: %llu rows loaded; %llu rows shipped in a "
      "%zu-byte frame, %llu kept (1 in %.2f); trimmed mean of %d reps.\n\n",
      static_cast<unsigned long long>(loaded),
      static_cast<unsigned long long>(shipped), reply.size(),
      static_cast<unsigned long long>(kept),
      static_cast<double>(shipped) / static_cast<double>(kept), kTimeReps);
  bench::TablePrinter printer(
      {"stage", "ms", "allocs", "allocs/row", "minor faults"}, 24);
  bench::JsonReport report("reply_path");
  const auto print = [&printer, &report](const char* name, const char* metric,
                                         const char* ms, uint64_t allocs,
                                         uint64_t rows, double faults) {
    const double per_row =
        static_cast<double>(allocs) / static_cast<double>(rows);
    char count[32], per[32], fault[32];
    std::snprintf(count, sizeof(count), "%llu",
                  static_cast<unsigned long long>(allocs));
    std::snprintf(per, sizeof(per), "%.5f", per_row);
    std::snprintf(fault, sizeof(fault), "%.1f", faults);
    printer.Row({name, ms, count, per, fault});
    // Only the deterministic count is a gated measurement ("value").
    report.BeginRow()
        .Field("stage", name)
        .Field("metric", metric)
        .Field("value", per_row);
  };
  print("table_load", "allocs_per_inserted_row", "-", load_allocs, loaded,
        static_cast<double>(load_faults));
  for (const Stage& stage : {server_stage, filtered_stage, full_stage}) {
    char ms[32];
    std::snprintf(ms, sizeof(ms), "%.3f", stage.ms);
    print(stage.name, "allocs_per_reply_row", ms, stage.allocs, shipped,
          stage.faults);
  }
  char query_ms[32];
  std::snprintf(query_ms, sizeof(query_ms), "%.3f", query_stage.ms);
  print(query_stage.name, "allocs_per_returned_row", query_ms,
        query_count.allocs, query_count.rows, query_stage.faults);
  return report.Write() ? 0 : 1;
}
