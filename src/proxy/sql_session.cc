#include "proxy/sql_session.h"

#include <algorithm>
#include <utility>

#include "engine/executor.h"
#include "sql/explain.h"
#include "sql/parser.h"
#include "sql/range_extract.h"

namespace mope::proxy {

Status EncryptedSqlSession::AttachClientTable(
    const std::string& name, engine::Schema schema,
    const std::vector<engine::Row>& rows) {
  MOPE_ASSIGN_OR_RETURN(engine::Table * table,
                        client_tables_.CreateTable(name, std::move(schema)));
  for (const engine::Row& row : rows) {
    MOPE_RETURN_NOT_OK(table->Insert(row).status());
  }
  return Status::OK();
}

Result<sql::SqlResult> EncryptedSqlSession::Execute(
    const std::string& sql_text) {
  // EXPLAIN ANALYZE always runs traced: the actuals and the trace's counters
  // *are* the result. The prefix peek is cheap and a false negative on
  // malformed input just means the parse error surfaces on the untraced
  // path.
  if (!tracing_enabled_ && !sql::IsExplainAnalyze(sql_text)) {
    return ExecuteImpl(sql_text);
  }

  // A fresh trace per statement: the activation makes it visible to every
  // instrumented layer below (proxy, OPE, engine, wire) without touching
  // signatures, and RemoteConnection stamps its id into outgoing frames and
  // asks the server for a profile of each request.
  auto trace = std::make_unique<obs::Trace>("sql.execute", trace_clock_);
  const obs::ScopedTraceActivation activate(trace.get());
  Result<sql::SqlResult> result = ExecuteImpl(sql_text);
  last_trace_ = std::move(trace);
  return result;
}

Result<sql::SqlResult> EncryptedSqlSession::ExecuteImpl(
    const std::string& sql_text) {
  stats_ = SessionStats{};
  auto parsed = [&]() -> Result<sql::Statement> {
    const obs::ScopedSpan span("session.parse");
    return sql::ParseStatement(sql_text);
  }();
  MOPE_ASSIGN_OR_RETURN(sql::Statement statement, std::move(parsed));
  if (statement.explain) {
    return ExplainImpl(std::move(statement.select), statement.analyze);
  }
  sql::SelectStmt stmt = std::move(statement.select);

  MOPE_ASSIGN_OR_RETURN(FetchPlan fetch_plan, PlanFetch(stmt));

  // Fetch through the proxy (fakes, batching, filtering all apply). The
  // schema comes through the proxy's connection too, so the session works
  // unchanged when the table lives in another process.
  MOPE_ASSIGN_OR_RETURN(engine::Schema server_schema,
                        fetch_plan.proxy->GetServerSchema());
  MOPE_ASSIGN_OR_RETURN(std::vector<engine::Row> fetched,
                        FetchSegments(fetch_plan));

  engine::Catalog scratch;
  MOPE_RETURN_NOT_OK(BuildScratch(stmt, std::move(server_schema),
                                  std::move(fetched), &scratch));
  const obs::ScopedSpan span("session.local_exec");
  return sql::ExecuteSql(&scratch, sql_text);
}

Result<EncryptedSqlSession::FetchPlan> EncryptedSqlSession::PlanFetch(
    const sql::SelectStmt& stmt) {
  // Locate the encrypted column of the FROM table and the fetch predicate.
  const auto enc_column = system_->EncryptedColumnOf(stmt.from_table);
  if (!enc_column.has_value()) {
    return Status::InvalidArgument("table '" + stmt.from_table +
                                   "' has no encrypted range column");
  }
  if (stmt.where == nullptr) {
    return Status::NotSupported(
        "encrypted execution requires a WHERE range condition on '" +
        *enc_column + "' (fetching the whole table would defeat the point)");
  }
  auto ranges = sql::ExtractRangesFromWhere(
      *stmt.where,
      [&enc_column](const std::string& col) { return col == *enc_column; });
  if (!ranges.has_value()) {
    return Status::NotSupported(
        "WHERE clause has no extractable range condition on '" + *enc_column +
        "'");
  }

  FetchPlan plan;
  plan.enc_column = *enc_column;
  MOPE_ASSIGN_OR_RETURN(plan.proxy,
                        system_->GetProxy(stmt.from_table, *enc_column));
  plan.domain = plan.proxy->config().domain;

  // Clamp the extracted segments to the column domain and coalesce them so
  // no row is fetched twice.
  std::vector<Segment> segments;
  for (Segment seg : ranges->segments) {
    if (seg.lo >= plan.domain) continue;
    seg.hi = std::min(seg.hi, plan.domain - 1);
    segments.push_back(seg);
  }
  plan.segments = engine::CoalesceSegments(std::move(segments));
  return plan;
}

Result<std::vector<engine::Row>> EncryptedSqlSession::FetchSegments(
    const FetchPlan& plan) {
  std::vector<engine::Row> fetched;
  for (const Segment& seg : plan.segments) {
    const obs::ScopedSpan span("session.fetch_segment");
    MOPE_ASSIGN_OR_RETURN(
        QueryResponse resp,
        plan.proxy->ExecuteRange(query::RangeQuery{seg.lo, seg.hi}));
    ++stats_.ranges_fetched;
    stats_.real_queries += resp.real_queries_sent;
    stats_.fake_queries += resp.fake_queries_sent;
    stats_.server_requests += resp.server_requests;
    for (engine::Row& row : resp.rows) fetched.push_back(std::move(row));
  }
  stats_.rows_fetched = fetched.size();

  // The statement-level counts the proxy.* counters do not already hold,
  // under session.* — the same names whether the proxy's connection is
  // embedded or remote.
  obs::MetricsRegistry* registry = system_->metrics();
  registry->GetCounter("session.queries")->Increment();
  registry->GetCounter("session.ranges_fetched")
      ->Increment(stats_.ranges_fetched);
  return fetched;
}

Status EncryptedSqlSession::BuildScratch(const sql::SelectStmt& stmt,
                                         engine::Schema server_schema,
                                         std::vector<engine::Row> fetched,
                                         engine::Catalog* scratch) {
  // Client-side execution: a scratch catalog holding the fetched rows under
  // the original table name plus any attached client tables, running the
  // *original* statement (the fetch predicate re-applies as a residual
  // filter over plaintext).
  MOPE_ASSIGN_OR_RETURN(
      engine::Table * local,
      scratch->CreateTable(stmt.from_table, std::move(server_schema)));
  for (const engine::Row& row : fetched) {
    MOPE_RETURN_NOT_OK(local->Insert(row).status());
  }
  if (stmt.join.has_value()) {
    MOPE_ASSIGN_OR_RETURN(const engine::Table* aux,
                          client_tables_.GetTable(stmt.join->table));
    MOPE_ASSIGN_OR_RETURN(
        engine::Table * copy,
        scratch->CreateTable(stmt.join->table, aux->schema()));
    for (engine::RowId r = 0; r < aux->row_count(); ++r) {
      MOPE_RETURN_NOT_OK(copy->Insert(aux->row(r)).status());
    }
  }
  return Status::OK();
}

Result<sql::SqlResult> EncryptedSqlSession::ExplainImpl(sql::SelectStmt stmt,
                                                        bool analyze) {
  MOPE_ASSIGN_OR_RETURN(FetchPlan fetch_plan, PlanFetch(stmt));
  MOPE_ASSIGN_OR_RETURN(engine::Schema server_schema,
                        fetch_plan.proxy->GetServerSchema());

  std::vector<std::string> lines;
  lines.push_back("Fetch: " + stmt.from_table + "." + fetch_plan.enc_column +
                  " via encrypted proxy (segments=" +
                  std::to_string(fetch_plan.segments.size()) +
                  ", domain=" + std::to_string(fetch_plan.domain) + ")");

  // Plain EXPLAIN plans over an *empty* local table by design: the proxy
  // deliberately has no server-side statistics (cardinalities of encrypted
  // data are exactly what the scheme hides), so pre-execution estimates
  // reflect only what the client knows. ANALYZE replaces them with actuals.
  std::vector<engine::Row> fetched;
  if (analyze) {
    MOPE_ASSIGN_OR_RETURN(fetched, FetchSegments(fetch_plan));
  }

  engine::Catalog scratch;
  MOPE_RETURN_NOT_OK(BuildScratch(stmt, std::move(server_schema),
                                  std::move(fetched), &scratch));
  sql::Planner planner(&scratch);
  MOPE_ASSIGN_OR_RETURN(sql::PlannedQuery plan, planner.Plan(std::move(stmt)));

  if (analyze) {
    plan.root->EnableProfiling(trace_clock_ != nullptr ? trace_clock_
                                                       : obs::SystemClock());
    {
      const obs::ScopedSpan span("session.local_exec");
      MOPE_RETURN_NOT_OK(engine::Collect(plan.root.get()).status());
    }
    engine::FoldOpStatsIntoRegistry(plan.root.get(), system_->metrics());
  }

  sql::ExplainOptions options;
  options.analyze = analyze;
  for (std::string& line : sql::RenderPlanLines(plan.root.get(), options)) {
    lines.push_back(std::move(line));
  }

  if (analyze) {
    // The query-level resource vector, one entry per line: the trace's id
    // and every counter credited to it — the session's real/fake
    // accounting, OPE calls, wire bytes, and the server's engine.* and
    // storage.* work (credited directly by an embedded server, or brought
    // back in the wire profile by a remote one).
    const obs::Trace* trace = obs::CurrentTrace();
    lines.push_back("Resources:");
    lines.push_back("  trace_id=" + std::to_string(trace->trace_id()));
    for (const auto& [name, value] : trace->counters()) {
      lines.push_back("  " + name + "=" + std::to_string(value));
    }
  }
  return sql::PlanLinesToResult(std::move(lines));
}

}  // namespace mope::proxy
