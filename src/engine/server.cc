#include "engine/server.h"

#include <array>

namespace mope::engine {

DbServer::DbServer()
    : catalog_(std::make_unique<Catalog>()),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      batches_received_(metrics_->GetCounter("engine.batches_received")),
      ranges_received_(metrics_->GetCounter("engine.ranges_received")),
      segments_scanned_(metrics_->GetCounter("engine.segments_scanned")),
      entries_visited_(metrics_->GetCounter("engine.entries_visited")),
      index_nodes_visited_(metrics_->GetCounter("engine.index_nodes_visited")),
      rows_returned_(metrics_->GetCounter("engine.rows_returned")),
      bytes_received_(metrics_->GetCounter("engine.bytes_received")),
      bytes_sent_(metrics_->GetCounter("engine.bytes_sent")),
      batch_ranges_hist_(metrics_->GetHistogram("engine.batch_ranges")) {}

ServerStats DbServer::stats() const {
  ServerStats s;
  s.batches_received = batches_received_->Value();
  s.ranges_received = ranges_received_->Value();
  s.segments_scanned = segments_scanned_->Value();
  s.entries_visited = entries_visited_->Value();
  s.index_nodes_visited = index_nodes_visited_->Value();
  s.rows_returned = rows_returned_->Value();
  s.bytes_received = bytes_received_->Value();
  s.bytes_sent = bytes_sent_->Value();
  return s;
}

Result<std::vector<Segment>> DbServer::PrepareSegments(
    const std::string& table, const std::string& column,
    const std::vector<ModularInterval>& ranges, const Table** table_out,
    const BPlusTree** index_out) {
  MOPE_ASSIGN_OR_RETURN(Table * tbl, catalog_->GetTable(table));
  MOPE_ASSIGN_OR_RETURN(const BPlusTree* index, tbl->GetIndex(column));
  *table_out = tbl;
  *index_out = index;

  std::vector<Segment> segments;
  segments.reserve(ranges.size());
  for (const ModularInterval& range : ranges) {
    std::array<Segment, 2> parts;
    const int n = range.ToSegments(&parts);
    for (int i = 0; i < n; ++i) segments.push_back(parts[i]);
  }

  batches_received_->Increment();
  ranges_received_->Increment(ranges.size());
  batch_ranges_hist_->Observe(ranges.size());
  if (leakage_auditor_ != nullptr) {
    for (const ModularInterval& range : ranges) {
      leakage_auditor_->ObserveStart(range.start());
    }
    leakage_auditor_->Publish();
  }
  return segments;
}

Status DbServer::OpenStorage(const std::string& data_dir,
                             const DurableCatalog::Options& options) {
  if (durable_ != nullptr) {
    return Status::InvalidArgument("storage is already attached");
  }
  DurableCatalog::Options opts = options;
  if (opts.metrics == nullptr) opts.metrics = metrics_.get();
  MOPE_ASSIGN_OR_RETURN(durable_,
                        DurableCatalog::Open(data_dir, catalog_.get(), opts));
  return Status::OK();
}

Status DbServer::CheckpointStorage() {
  if (durable_ == nullptr) {
    return Status::InvalidArgument("no storage attached");
  }
  return durable_->Checkpoint();
}

Status DbServer::SyncStorage() {
  if (durable_ == nullptr) {
    return Status::InvalidArgument("no storage attached");
  }
  return durable_->Sync();
}

Status DbServer::EnableLeakageAudit(const obs::LeakageAuditConfig& config) {
  MOPE_ASSIGN_OR_RETURN(leakage_auditor_,
                        obs::LeakageAuditor::Create(config, metrics_.get()));
  return Status();
}

Status DbServer::VisitRangeBatch(
    const std::string& table, const std::string& column,
    const std::vector<ModularInterval>& ranges,
    const std::function<void(RowId, const Row&)>& visit) {
  const Table* tbl = nullptr;
  const BPlusTree* index = nullptr;
  MOPE_ASSIGN_OR_RETURN(std::vector<Segment> segments,
                        PrepareSegments(table, column, ranges, &tbl, &index));

  uint64_t rows = 0;
  for (const Segment& seg : CoalesceSegments(std::move(segments))) {
    // Fresh stats per executed sweep so every merged range's node visits
    // are attributed as they happen — the trace-scoped delta snapshots that
    // EXPLAIN ANALYZE takes around a request see the full per-sweep cost,
    // not just the first range's.
    BPlusTree::ScanStats sweep_stats;
    const size_t visited = index->ScanRange(
        seg.lo, seg.hi,
        [&visit, tbl](uint64_t, uint64_t rid) { visit(rid, tbl->row(rid)); },
        &sweep_stats);
    rows += visited;
    entries_visited_->Increment(visited);
    segments_scanned_->Increment();
    index_nodes_visited_->Increment(sweep_stats.nodes_visited);
  }
  rows_returned_->Increment(rows);
  return Status::OK();
}

Result<std::vector<std::pair<RowId, Row>>> DbServer::ExecuteRangeBatchWithIds(
    const std::string& table, const std::string& column,
    const std::vector<ModularInterval>& ranges) {
  std::vector<std::pair<RowId, Row>> rows;
  MOPE_RETURN_NOT_OK(VisitRangeBatch(
      table, column, ranges,
      [&rows](RowId rid, const Row& row) { rows.emplace_back(rid, row); }));
  return rows;
}

Result<uint64_t> DbServer::CountRangeBatch(
    const std::string& table, const std::string& column,
    const std::vector<ModularInterval>& ranges) {
  uint64_t count = 0;
  MOPE_RETURN_NOT_OK(VisitRangeBatch(table, column, ranges,
                                     [&count](RowId, const Row&) { ++count; }));
  return count;
}

Result<std::vector<Row>> DbServer::ExecutePlan(Operator* plan) {
  MOPE_ASSIGN_OR_RETURN(std::vector<Row> rows, Collect(plan));
  batches_received_->Increment();
  rows_returned_->Increment(rows.size());
  // Profiled plans contribute per-operator-type latency/row distributions
  // to this server's /metrics; unprofiled ones skip out immediately.
  FoldOpStatsIntoRegistry(plan, metrics_.get());
  return rows;
}

}  // namespace mope::engine
