#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/histogram.h"
#include "workload/calendar.h"
#include "workloads.h"

namespace mope::perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return Mix64(seed ^ Mix64(purpose));
}

uint64_t EpochOps(int seconds, double nominal_ops_per_s, uint64_t min_ops) {
  const auto ops = static_cast<uint64_t>(
      std::llround(seconds * nominal_ops_per_s / kEpochs));
  return std::max(ops, min_ops);
}

dist::Distribution TemplateStarts(const std::vector<query::RangeQuery>& ranges,
                                  uint64_t k) {
  Histogram hist(workload::kTpchDateDomain);
  for (const query::RangeQuery& q : ranges) {
    for (const auto& piece : query::Decompose(q, k, workload::kTpchDateDomain)) {
      hist.Add(piece.start);
    }
  }
  auto starts = dist::Distribution::FromHistogram(hist);
  MOPE_CHECK(starts.ok(), "template start distribution");
  return std::move(starts).value();
}

std::vector<query::RangeQuery> AllQ6Ranges() {
  std::vector<query::RangeQuery> ranges;
  for (int year = 1993; year <= 1997; ++year) {
    ranges.push_back(query::RangeQuery{
        workload::TpchDayIndex(workload::CivilDate{year, 1, 1}),
        workload::TpchDayIndex(workload::CivilDate{year + 1, 1, 1}) - 1});
  }
  return ranges;
}

std::vector<query::RangeQuery> AllQ14Ranges() {
  std::vector<query::RangeQuery> ranges;
  for (int year = 1993; year <= 1997; ++year) {
    for (int month = 1; month <= 12; ++month) {
      const int next_year = month == 12 ? year + 1 : year;
      const int next_month = month == 12 ? 1 : month + 1;
      ranges.push_back(query::RangeQuery{
          workload::TpchDayIndex(workload::CivilDate{year, month, 1}),
          workload::TpchDayIndex(
              workload::CivilDate{next_year, next_month, 1}) -
              1});
    }
  }
  return ranges;
}

EncryptedLineitem LoadEncryptedLineitem(
    double scale_factor, uint64_t system_seed,
    const proxy::EncryptedColumnSpec& spec, const dist::Distribution& starts,
    const std::function<void(proxy::MopeSystem*)>& before_load) {
  EncryptedLineitem out;
  uint64_t t0 = NowNs();
  workload::TpchConfig config;
  config.scale_factor = scale_factor;
  out.data = workload::GenerateTpch(config);
  out.generate_s = NsToS(static_cast<double>(NowNs() - t0));

  out.system = std::make_unique<proxy::MopeSystem>(system_seed);
  if (before_load) before_load(out.system.get());
  t0 = NowNs();
  const Status loaded = out.system->LoadTable(
      "lineitem", out.data.lineitem_schema, out.data.lineitem, spec, &starts);
  out.load_encrypt_s = NsToS(static_cast<double>(NowNs() - t0));
  MOPE_CHECK(loaded.ok(), "encrypted lineitem load");
  return out;
}

CipherIndex::CipherIndex(const engine::DbServer& server,
                         const std::string& table, const std::string& column) {
  auto tbl = server.catalog().GetTable(table);
  MOPE_CHECK(tbl.ok(), "cipher index: table");
  auto col = (*tbl)->schema().IndexOf(column);
  MOPE_CHECK(col.ok(), "cipher index: column");
  std::vector<std::pair<uint64_t, uint64_t>> by_cipher;
  by_cipher.reserve((*tbl)->row_count());
  for (engine::RowId rid = 0; rid < (*tbl)->row_count(); ++rid) {
    by_cipher.emplace_back(
        static_cast<uint64_t>(std::get<int64_t>((*tbl)->row(rid)[*col])), rid);
  }
  std::sort(by_cipher.begin(), by_cipher.end());
  ciphers_.reserve(by_cipher.size());
  prefix_.assign(1, 0);
  for (const auto& [cipher, rid] : by_cipher) {
    ciphers_.push_back(cipher);
    prefix_.push_back(prefix_.back() + Mix64(rid));
  }
}

Digest CipherIndex::Expected(const std::vector<ModularInterval>& ranges) const {
  Digest digest;
  for (const ModularInterval& range : ranges) {
    std::array<Segment, 2> parts;
    const int n = range.ToSegments(&parts);
    for (int i = 0; i < n; ++i) {
      const auto lo = static_cast<size_t>(
          std::lower_bound(ciphers_.begin(), ciphers_.end(), parts[i].lo) -
          ciphers_.begin());
      const auto hi = static_cast<size_t>(
          std::upper_bound(ciphers_.begin(), ciphers_.end(), parts[i].hi) -
          ciphers_.begin());
      digest.count += hi - lo;
      digest.sum += prefix_[hi] - prefix_[lo];
    }
  }
  return digest;
}

}  // namespace mope::perfbench
