#include "engine/executor.h"

#include <algorithm>

#include "obs/clock.h"
#include "obs/registry.h"

namespace mope::engine {

void Operator::EnableProfiling(obs::Clock* clock) {
  clock_ = clock;
  stats_ = OpStats{};
  for (Operator* child : children()) child->EnableProfiling(clock);
}

Status Operator::OpenProfiled() {
  // A profiled execution starts here: drop actuals from any previous run so
  // re-executing a cached plan reports this run, not the sum of all runs.
  stats_ = OpStats{};
  const uint64_t t0 = clock_->NowNanos();
  const Status s = OpenImpl();
  stats_.open_ns += clock_->NowNanos() - t0;
  return s;
}

Result<bool> Operator::NextProfiled(Row* out) {
  const uint64_t t0 = clock_->NowNanos();
  Result<bool> r = NextImpl(out);
  stats_.next_ns += clock_->NowNanos() - t0;
  ++stats_.next_calls;
  if (r.ok() && r.value()) ++stats_.rows_out;
  return r;
}

void FoldOpStatsIntoRegistry(Operator* root, obs::MetricsRegistry* registry) {
  const OpStats& stats = root->stats();
  // An unprofiled (or never-opened) operator carries all-zero stats; folding
  // those in would skew the per-type distributions toward zero.
  if (stats.next_calls != 0 || stats.open_ns != 0 || stats.rows_out != 0) {
    const std::string prefix = std::string("executor.op.") + root->name();
    registry->GetHistogram(prefix + ".ns")
        ->Observe(stats.open_ns + stats.next_ns);
    registry->GetHistogram(prefix + ".rows")->Observe(stats.rows_out);
  }
  for (Operator* child : root->children()) {
    FoldOpStatsIntoRegistry(child, registry);
  }
}

Result<std::vector<Row>> Collect(Operator* op) {
  MOPE_RETURN_NOT_OK(op->Open());
  std::vector<Row> rows;
  Row row;
  while (true) {
    MOPE_ASSIGN_OR_RETURN(bool has, op->Next(&row));
    if (!has) break;
    rows.push_back(row);
  }
  return rows;
}

std::vector<Segment> CoalesceSegments(std::vector<Segment> segments) {
  if (segments.empty()) return segments;
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) { return a.lo < b.lo; });
  std::vector<Segment> merged;
  merged.push_back(segments.front());
  for (size_t i = 1; i < segments.size(); ++i) {
    Segment& last = merged.back();
    // Merge overlapping or exactly-adjacent segments.
    if (segments[i].lo <= last.hi || segments[i].lo == last.hi + 1) {
      last.hi = std::max(last.hi, segments[i].hi);
    } else {
      merged.push_back(segments[i]);
    }
  }
  return merged;
}

Status SeqScanOp::OpenImpl() {
  next_ = 0;
  return Status::OK();
}

Result<bool> SeqScanOp::NextImpl(Row* out) {
  if (next_ >= table_->row_count()) return false;
  *out = table_->row(next_++);
  return true;
}

IndexRangeScanOp::IndexRangeScanOp(const Table* table, const BPlusTree* index,
                                   std::vector<Segment> segments)
    : table_(table),
      index_(index),
      segments_(CoalesceSegments(std::move(segments))) {}

Status IndexRangeScanOp::OpenImpl() {
  row_ids_.clear();
  next_ = 0;
  entries_visited_ = 0;
  nodes_visited_ = 0;
  nodes_per_sweep_.clear();
  nodes_per_sweep_.reserve(segments_.size());
  for (const Segment& seg : segments_) {
    // Fresh stats per executed sweep: every coalesced segment's node visits
    // are attributed, not just the first range's, so multi-range ANALYZE
    // actuals are exact.
    engine::BPlusTree::ScanStats sweep_stats;
    entries_visited_ += index_->ScanRange(
        seg.lo, seg.hi,
        [this](uint64_t, uint64_t rid) { row_ids_.push_back(rid); },
        &sweep_stats);
    nodes_per_sweep_.push_back(sweep_stats.nodes_visited);
    nodes_visited_ += sweep_stats.nodes_visited;
  }
  mutable_stats()->entries_visited += entries_visited_;
  mutable_stats()->nodes_visited += nodes_visited_;
  return Status::OK();
}

Result<bool> IndexRangeScanOp::NextImpl(Row* out) {
  if (next_ >= row_ids_.size()) return false;
  *out = table_->row(row_ids_[next_++]);
  return true;
}

Result<bool> FilterOp::NextImpl(Row* out) {
  while (true) {
    MOPE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (!has) return false;
    MOPE_ASSIGN_OR_RETURN(bool pass, pred_(*out));
    if (pass) return true;
  }
}

Result<bool> ProjectOp::NextImpl(Row* out) {
  Row row;
  MOPE_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
  if (!has) return false;
  out->clear();
  out->reserve(columns_.size());
  for (size_t col : columns_) {
    if (col >= row.size()) {
      return Status::Internal("projection column out of range");
    }
    out->push_back(std::move(row[col]));
  }
  return true;
}

HashJoinOp::HashJoinOp(std::unique_ptr<Operator> left,
                       std::unique_ptr<Operator> right, size_t left_key_col,
                       size_t right_key_col)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_col_(left_key_col),
      right_key_col_(right_key_col) {}

Status HashJoinOp::OpenImpl() {
  MOPE_RETURN_NOT_OK(left_->Open());
  MOPE_RETURN_NOT_OK(right_->Open());
  build_.clear();
  probing_ = false;
  // Build phase over the right child.
  Row row;
  while (true) {
    auto has = right_->Next(&row);
    MOPE_RETURN_NOT_OK(has.status());
    if (!has.value()) break;
    if (right_key_col_ >= row.size() ||
        !std::holds_alternative<int64_t>(row[right_key_col_])) {
      return Status::InvalidArgument("join key must be an int column");
    }
    build_.emplace(std::get<int64_t>(row[right_key_col_]), row);
  }
  return Status::OK();
}

Result<bool> HashJoinOp::NextImpl(Row* out) {
  while (true) {
    if (probing_) {
      if (probe_range_.first != probe_range_.second) {
        *out = current_left_;
        const Row& right_row = probe_range_.first->second;
        out->insert(out->end(), right_row.begin(), right_row.end());
        ++probe_range_.first;
        return true;
      }
      probing_ = false;
    }
    MOPE_ASSIGN_OR_RETURN(bool has, left_->Next(&current_left_));
    if (!has) return false;
    if (left_key_col_ >= current_left_.size() ||
        !std::holds_alternative<int64_t>(current_left_[left_key_col_])) {
      return Status::InvalidArgument("join key must be an int column");
    }
    probe_range_ =
        build_.equal_range(std::get<int64_t>(current_left_[left_key_col_]));
    probing_ = true;
  }
}

namespace {

/// Three-way value comparison for sorting: numbers before strings; numbers
/// compare with promotion, strings lexicographically.
int CompareForSort(const Value& a, const Value& b) {
  const bool a_str = std::holds_alternative<std::string>(a);
  const bool b_str = std::holds_alternative<std::string>(b);
  if (a_str != b_str) return a_str ? 1 : -1;
  if (a_str) {
    const auto& sa = std::get<std::string>(a);
    const auto& sb = std::get<std::string>(b);
    return sa < sb ? -1 : (sa == sb ? 0 : 1);
  }
  const double da = std::holds_alternative<int64_t>(a)
                        ? static_cast<double>(std::get<int64_t>(a))
                        : std::get<double>(a);
  const double db = std::holds_alternative<int64_t>(b)
                        ? static_cast<double>(std::get<int64_t>(b))
                        : std::get<double>(b);
  return da < db ? -1 : (da == db ? 0 : 1);
}

}  // namespace

Status SortOp::OpenImpl() {
  MOPE_ASSIGN_OR_RETURN(rows_, Collect(child_.get()));
  next_ = 0;
  for (const SortKey& key : keys_) {
    if (rows_.empty()) break;
    if (key.column >= rows_.front().size()) {
      return Status::InvalidArgument("sort column out of range");
    }
  }
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (const SortKey& key : keys_) {
                       const int cmp =
                           CompareForSort(a[key.column], b[key.column]);
                       if (cmp != 0) return key.descending ? cmp > 0 : cmp < 0;
                     }
                     return false;
                   });
  return Status::OK();
}

Result<bool> SortOp::NextImpl(Row* out) {
  if (next_ >= rows_.size()) return false;
  *out = rows_[next_++];
  return true;
}

AggregateOp::AggregateOp(std::unique_ptr<Operator> child,
                         std::vector<AggSpec> aggs)
    : child_(std::move(child)), aggs_(std::move(aggs)) {}

AggregateOp::AggregateOp(std::unique_ptr<Operator> child, size_t group_by_col,
                         std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      aggs_(std::move(aggs)),
      has_group_by_(true),
      group_by_col_(group_by_col) {}

Row AggregateOp::Finalize(int64_t group_key,
                          const std::vector<AggState>& states) const {
  Row out;
  out.reserve(aggs_.size() + (has_group_by_ ? 1 : 0));
  if (has_group_by_) out.emplace_back(group_key);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggState& st = states[i];
    switch (aggs_[i].kind) {
      case AggKind::kCount:
        out.emplace_back(static_cast<int64_t>(st.count));
        break;
      case AggKind::kSum:
        out.emplace_back(st.sum);
        break;
      case AggKind::kAvg:
        out.emplace_back(st.count == 0 ? 0.0
                                       : st.sum / static_cast<double>(st.count));
        break;
      case AggKind::kMin:
        out.emplace_back(st.seen ? st.min : 0.0);
        break;
      case AggKind::kMax:
        out.emplace_back(st.seen ? st.max : 0.0);
        break;
    }
  }
  return out;
}

Status AggregateOp::OpenImpl() {
  MOPE_RETURN_NOT_OK(child_->Open());
  results_.clear();
  next_ = 0;

  std::map<int64_t, std::vector<AggState>> groups;
  std::vector<AggState> scalar(aggs_.size());

  Row row;
  while (true) {
    auto has = child_->Next(&row);
    MOPE_RETURN_NOT_OK(has.status());
    if (!has.value()) break;

    std::vector<AggState>* states = &scalar;
    int64_t key = 0;
    if (has_group_by_) {
      if (group_by_col_ >= row.size() ||
          !std::holds_alternative<int64_t>(row[group_by_col_])) {
        return Status::InvalidArgument("group-by column must be int");
      }
      key = std::get<int64_t>(row[group_by_col_]);
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) it->second.resize(aggs_.size());
      states = &it->second;
    }

    for (size_t i = 0; i < aggs_.size(); ++i) {
      AggState& st = (*states)[i];
      ++st.count;
      if (aggs_[i].kind == AggKind::kCount) continue;
      if (!aggs_[i].extract) {
        return Status::InvalidArgument("aggregate needs a value extractor");
      }
      auto v = aggs_[i].extract(row);
      MOPE_RETURN_NOT_OK(v.status());
      st.sum += v.value();
      if (!st.seen || v.value() < st.min) st.min = v.value();
      if (!st.seen || v.value() > st.max) st.max = v.value();
      st.seen = true;
    }
  }

  if (has_group_by_) {
    for (const auto& [key, states] : groups) {
      results_.push_back(Finalize(key, states));
    }
  } else {
    // Scalar aggregation yields one row even over empty input (COUNT = 0).
    results_.push_back(Finalize(0, scalar));
  }
  return Status::OK();
}

Result<bool> AggregateOp::NextImpl(Row* out) {
  if (next_ >= results_.size()) return false;
  *out = results_[next_++];
  return true;
}

}  // namespace mope::engine
