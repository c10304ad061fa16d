/// Allocation gate for the range-batch reply path.
///
/// One batch over a lineitem-shaped table ships about 15k rows, of which
/// the proxy's ciphertext filter keeps about 1 in 8.6 — the shape of one
/// analyst_q6 reply (QueryU pays its Sec. 6 bandwidth in rows the proxy
/// drops). The bench drives the reply through its three stages:
///
///   server_dispatch       WireDispatcher::HandleFrameBytes: sweep the
///                         index and write each row from table storage
///                         into the reply frame, CRC included;
///   client_filtered_fetch RemoteConnection::FetchRangeBatch on that frame:
///                         read, CRC-check and validate every byte, build
///                         only the kept rows (what the proxy calls);
///   client_full_decode    RemoteConnection::ExecuteRangeBatch on that
///                         frame: the same, building every row.
///
/// The client side reads the frame from a transport that replays the
/// server's bytes, so each stage's allocations are its own. The gated
/// measurement is heap allocations per shipped row (alloc_counter.h):
/// exactly reproducible, so the committed baseline holds to the last
/// allocation and the 2% CI threshold trips on any per-row allocation that
/// comes back. Wall time per stage is printed, not gated.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"
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

struct Stage {
  const char* name;
  uint64_t allocs = 0;  ///< Per call.
  double ms = 0.0;      ///< Trimmed mean per call.
};

/// Times `run` over kTimeReps calls after one warm-up, then counts one
/// call's allocations twice; the two counts must agree.
template <typename Run>
Stage Measure(const char* name, const Run& run) {
  Stage stage{name};
  run();
  std::vector<double> times;
  for (int rep = 0; rep < kTimeReps; ++rep) {
    bench::Stopwatch watch;
    run();
    times.push_back(watch.ElapsedMs());
  }
  stage.ms = TrimmedMean(std::move(times));
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
  for (const engine::Row& row : data.lineitem) {
    MOPE_CHECK((*table)->Insert(row).ok(), "lineitem insert");
  }
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
    auto frame = dispatcher.HandleFrameBytes(request, &consumed);
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

  std::printf(
      "Range-batch reply path: %llu rows shipped in a %zu-byte frame, %llu "
      "kept (1 in %.2f); trimmed mean of %d reps.\n\n",
      static_cast<unsigned long long>(shipped), reply.size(),
      static_cast<unsigned long long>(kept),
      static_cast<double>(shipped) / static_cast<double>(kept), kTimeReps);
  bench::TablePrinter printer(
      {"stage", "ms", "allocs", "allocs/row"}, 24);
  bench::JsonReport report("reply_path");
  for (const Stage& stage : {server_stage, filtered_stage, full_stage}) {
    const double per_row =
        static_cast<double>(stage.allocs) / static_cast<double>(shipped);
    char ms[32], allocs[32], per[32];
    std::snprintf(ms, sizeof(ms), "%.3f", stage.ms);
    std::snprintf(allocs, sizeof(allocs), "%llu",
                  static_cast<unsigned long long>(stage.allocs));
    std::snprintf(per, sizeof(per), "%.5f", per_row);
    printer.Row({stage.name, ms, allocs, per});
    // Only the deterministic count is a gated measurement ("value").
    report.BeginRow()
        .Field("stage", stage.name)
        .Field("metric", "allocs_per_reply_row")
        .Field("value", per_row);
  }
  return report.Write() ? 0 : 1;
}
