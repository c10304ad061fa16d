#ifndef MOPE_ENGINE_EXECUTOR_H_
#define MOPE_ENGINE_EXECUTOR_H_

/// \file executor.h
/// Volcano-style (pull-based) physical operators over engine tables.
///
/// The subset matches what the paper's workload needs: sequential and
/// B+-tree index range scans, *multi-range* scans (the Section 5.1
/// multiple-query optimization: many OR-ed range predicates answered in one
/// pass over a shared index), filters, hash joins (TPC-H Q14 joins LINEITEM
/// with PART), projections, and scalar/grouped aggregation (SUM / COUNT /
/// AVG / MIN / MAX).
///
/// Every operator is instrumented for EXPLAIN ANALYZE: the public
/// `Open()` / `Next()` entry points are non-virtual hooks that dispatch to
/// the per-operator `OpenImpl()` / `NextImpl()` overrides. With profiling
/// off the hook is a single pointer test (no clock reads, no counter
/// traffic); with profiling on it fills the operator's `OpStats` block —
/// rows out, `Next()` calls, cumulative wall time from the injectable
/// `obs::Clock`, and WAL-byte deltas snapshotted from a registry counter
/// around each call. Timings and counter deltas are *inclusive* of
/// children, as in PostgreSQL's EXPLAIN ANALYZE; subtract a child's numbers
/// to get an operator's self cost.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "engine/table.h"

namespace mope::obs {
class Clock;
class Counter;
class MetricsRegistry;
}  // namespace mope::obs

namespace mope::engine {

/// Per-operator execution actuals, filled only while profiling is enabled
/// (see Operator::EnableProfiling). Reset on every profiled Open().
struct OpStats {
  uint64_t rows_out = 0;       ///< Rows produced by Next().
  uint64_t next_calls = 0;     ///< Next() invocations (incl. the final miss).
  uint64_t open_ns = 0;        ///< Wall time inside Open(), incl. children.
  uint64_t next_ns = 0;        ///< Cumulative Next() time, incl. children.
  uint64_t entries_visited = 0;    ///< Index entries touched (index scans).
  uint64_t nodes_visited = 0;      ///< B+-tree leaf nodes touched.
  uint64_t wal_bytes = 0;      ///< WAL byte delta attributed here.
};

/// Shared profiling context threaded through an operator tree. The clock is
/// required; the counter is an optional delta source (pass the live
/// `storage.wal.bytes` registry counter to attribute logging work to the
/// operators that triggered it).
struct ProfileContext {
  obs::Clock* clock = nullptr;
  const obs::Counter* wal_bytes = nullptr;
};

/// Pull-based operator interface.
///
/// Subclasses implement the protected `OpenImpl()` / `NextImpl()` hooks and
/// never override the public entry points (linter rule R12 enforces this):
/// routing every call through the base keeps the profiling contract — one
/// branch when off, complete actuals when on — true for every operator.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator (and its children) for iteration.
  Status Open();

  /// Produces the next row into *out; returns false when exhausted.
  Result<bool> Next(Row* out);

  /// Number of output columns.
  virtual size_t output_width() const = 0;

  /// Stable operator-type name ("SeqScan", "HashJoin", ...). Used as the
  /// EXPLAIN node label and the per-operator-type metrics key.
  virtual const char* name() const = 0;

  /// Direct children, outermost input first. EXPLAIN renders this shape and
  /// EnableProfiling recurses over it.
  virtual std::vector<Operator*> children() { return {}; }

  /// One-line EXPLAIN label: the type name plus the planner's annotation
  /// (predicate text, segment list, ...), when one was attached.
  std::string describe() const {
    return annotation_.empty() ? std::string(name())
                               : std::string(name()) + " " + annotation_;
  }
  void set_annotation(std::string annotation) {
    annotation_ = std::move(annotation);
  }

  /// Planner cardinality estimate for EXPLAIN (`rows=` in the plan output).
  void set_estimated_rows(uint64_t rows) { estimated_rows_ = rows; }
  uint64_t estimated_rows() const { return estimated_rows_; }

  /// Turns profiling on (ctx != nullptr) or off for this subtree. The
  /// context must outlive execution. Resets accumulated stats.
  void EnableProfiling(const ProfileContext* ctx);

  /// Actuals from the last profiled execution.
  const OpStats& stats() const { return stats_; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextImpl(Row* out) = 0;

  /// Lets OpImpl code (index scans) attribute data-access detail.
  OpStats* mutable_stats() { return &stats_; }
  bool profiling_enabled() const { return profile_ != nullptr; }

 private:
  Status OpenProfiled();
  Result<bool> NextProfiled(Row* out);

  const ProfileContext* profile_ = nullptr;
  OpStats stats_;
  uint64_t estimated_rows_ = 0;
  std::string annotation_;
};

inline Status Operator::Open() {
  // Fast path: profiling off costs one predicted-not-taken branch.
  if (profile_ == nullptr) return OpenImpl();
  return OpenProfiled();
}

inline Result<bool> Operator::Next(Row* out) {
  if (profile_ == nullptr) return NextImpl(out);
  return NextProfiled(out);
}

/// Drains an operator tree into a materialized vector of rows.
Result<std::vector<Row>> Collect(Operator* op);

/// Folds a profiled tree's actuals into per-operator-type histograms in
/// `registry`: `executor.op.<name>.ns` (inclusive wall time) and
/// `executor.op.<name>.rows` (rows produced) per operator, recursively. The
/// /metrics endpoint then serves latency/row distributions by operator type
/// across all profiled queries. No-op for operators that were not profiled.
void FoldOpStatsIntoRegistry(Operator* root, obs::MetricsRegistry* registry);

/// Sorts segments and merges overlapping or adjacent ones — the shared-scan
/// preparation for disjunctive range predicates. The result is disjoint and
/// ascending, so a multi-range scan touches every qualifying row exactly once.
std::vector<Segment> CoalesceSegments(std::vector<Segment> segments);

/// Full-table scan.
class SeqScanOp final : public Operator {
 public:
  explicit SeqScanOp(const Table* table) : table_(table) {}

  size_t output_width() const override {
    return table_->schema().num_columns();
  }
  const char* name() const override { return "SeqScan"; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  const Table* table_;
  RowId next_ = 0;
};

/// B+-tree range scan over one or more (coalesced) key segments. Emits full
/// rows in key order; per-scan statistics are exposed for the benches.
class IndexRangeScanOp final : public Operator {
 public:
  /// `segments` are inclusive ciphertext intervals; they are coalesced at
  /// construction so overlapping query ranges share one index sweep.
  IndexRangeScanOp(const Table* table, const BPlusTree* index,
                   std::vector<Segment> segments);

  size_t output_width() const override {
    return table_->schema().num_columns();
  }
  const char* name() const override { return "IndexRangeScan"; }

  /// Index entries visited during the last Open/drain cycle.
  uint64_t entries_visited() const { return entries_visited_; }
  /// B+-tree leaf nodes touched during the last Open, summed over sweeps.
  uint64_t nodes_visited() const { return nodes_visited_; }
  size_t segments_scanned() const { return segments_.size(); }
  /// Leaf nodes touched by each executed sweep, in segment order. Every
  /// coalesced segment runs its own sweep, and every sweep's visits are
  /// attributed individually (not just the first range's), so ANALYZE
  /// actuals stay exact for multi-range scans.
  const std::vector<uint64_t>& nodes_per_sweep() const {
    return nodes_per_sweep_;
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  const Table* table_;
  const BPlusTree* index_;
  std::vector<Segment> segments_;
  std::vector<RowId> row_ids_;
  size_t next_ = 0;
  uint64_t entries_visited_ = 0;
  uint64_t nodes_visited_ = 0;
  std::vector<uint64_t> nodes_per_sweep_;
};

/// Row predicate; errors propagate out of Next.
using Predicate = std::function<Result<bool>(const Row&)>;

class FilterOp final : public Operator {
 public:
  FilterOp(std::unique_ptr<Operator> child, Predicate pred)
      : child_(std::move(child)), pred_(std::move(pred)) {}

  size_t output_width() const override { return child_->output_width(); }
  const char* name() const override { return "Filter"; }
  std::vector<Operator*> children() override { return {child_.get()}; }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextImpl(Row* out) override;

 private:
  std::unique_ptr<Operator> child_;
  Predicate pred_;
};

/// Keeps the given column subset, in order.
class ProjectOp final : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child, std::vector<size_t> columns)
      : child_(std::move(child)), columns_(std::move(columns)) {}

  size_t output_width() const override { return columns_.size(); }
  const char* name() const override { return "Project"; }
  std::vector<Operator*> children() override { return {child_.get()}; }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextImpl(Row* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<size_t> columns_;
};

/// Hash join on int64 equality: builds on the right child, probes with the
/// left. Output rows are left columns followed by right columns.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
             size_t left_key_col, size_t right_key_col);

  size_t output_width() const override {
    return left_->output_width() + right_->output_width();
  }
  const char* name() const override { return "HashJoin"; }
  std::vector<Operator*> children() override {
    return {left_.get(), right_.get()};
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  size_t left_key_col_;
  size_t right_key_col_;
  std::unordered_multimap<int64_t, Row> build_;
  Row current_left_;
  std::pair<std::unordered_multimap<int64_t, Row>::const_iterator,
            std::unordered_multimap<int64_t, Row>::const_iterator>
      probe_range_;
  bool probing_ = false;
};

/// Materializing sort. Keys are extracted per row; rows compare by the key
/// sequence (numeric promotion applies; ties keep input order — the sort is
/// stable).
class SortOp final : public Operator {
 public:
  struct SortKey {
    size_t column = 0;
    bool descending = false;
  };

  SortOp(std::unique_ptr<Operator> child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  size_t output_width() const override { return child_->output_width(); }
  const char* name() const override { return "Sort"; }
  std::vector<Operator*> children() override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t next_ = 0;
};

/// Emits at most `limit` rows from its child.
class LimitOp final : public Operator {
 public:
  LimitOp(std::unique_ptr<Operator> child, uint64_t limit)
      : child_(std::move(child)), limit_(limit) {}

  size_t output_width() const override { return child_->output_width(); }
  const char* name() const override { return "Limit"; }
  std::vector<Operator*> children() override { return {child_.get()}; }

 protected:
  Status OpenImpl() override {
    emitted_ = 0;
    return child_->Open();
  }

  Result<bool> NextImpl(Row* out) override {
    if (emitted_ >= limit_) return false;
    MOPE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (has) ++emitted_;
    return has;
  }

 private:
  std::unique_ptr<Operator> child_;
  uint64_t limit_;
  uint64_t emitted_ = 0;
};

/// Aggregate function kinds.
enum class AggKind : uint8_t { kCount, kSum, kAvg, kMin, kMax };

/// One aggregate: a kind plus a numeric extractor evaluated per input row
/// (COUNT ignores the extractor, which may be null).
struct AggSpec {
  AggKind kind = AggKind::kCount;
  std::function<Result<double>(const Row&)> extract;
};

/// Scalar or grouped aggregation. With no group-by column the output is a
/// single row of aggregate values (doubles, except COUNT which is int64).
/// With a group-by column the output is (group_key, aggs...) per group, in
/// ascending group-key order.
class AggregateOp final : public Operator {
 public:
  AggregateOp(std::unique_ptr<Operator> child, std::vector<AggSpec> aggs);
  AggregateOp(std::unique_ptr<Operator> child, size_t group_by_col,
              std::vector<AggSpec> aggs);

  size_t output_width() const override {
    return aggs_.size() + (has_group_by_ ? 1 : 0);
  }
  const char* name() const override { return "Aggregate"; }
  std::vector<Operator*> children() override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  struct AggState {
    double sum = 0.0;
    uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    bool seen = false;
  };

  Row Finalize(int64_t group_key, const std::vector<AggState>& states) const;

  std::unique_ptr<Operator> child_;
  std::vector<AggSpec> aggs_;
  bool has_group_by_ = false;
  size_t group_by_col_ = 0;
  std::vector<Row> results_;
  size_t next_ = 0;
};

}  // namespace mope::engine

#endif  // MOPE_ENGINE_EXECUTOR_H_
