#ifndef MOPE_PROXY_SQL_SESSION_H_
#define MOPE_PROXY_SQL_SESSION_H_

/// \file sql_session.h
/// CryptDB-style SQL over the encrypted system.
///
/// A client writes ordinary SQL with range predicates; the session rewrites
/// the predicate on the MOPE-encrypted column into proxy range queries (with
/// all the fake-query machinery), pulls the qualifying rows back, and then
/// executes the *original* statement — residual predicates, expressions,
/// joins against client-side tables, aggregation — locally over the fetched
/// plaintext rows. The server never sees the SQL, only the mixed stream of
/// encrypted ranges.
///
///   EncryptedSqlSession session(&system);
///   session.AttachClientTable("part", part_schema, part_rows);
///   auto result = session.Execute(
///       "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
///       "WHERE l_shipdate BETWEEN 366 AND 730 AND l_discount < 0.06");

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/table.h"
#include "obs/trace.h"
#include "proxy/system.h"
#include "sql/planner.h"

namespace mope::proxy {

class EncryptedSqlSession {
 public:
  /// `system` must outlive the session.
  explicit EncryptedSqlSession(MopeSystem* system) : system_(system) {}

  /// Registers a client-side table (e.g. a small dimension table that never
  /// left the client) available to joins in subsequent statements.
  Status AttachClientTable(const std::string& name, engine::Schema schema,
                           const std::vector<engine::Row>& rows);

  /// Executes one statement. SELECTs need: FROM names a table with a
  /// MOPE-encrypted column, and the WHERE clause contains a conjunct that is
  /// a range condition (or OR of range conditions) on that column — the
  /// fetch predicate. Everything else in the statement runs client-side.
  ///
  /// `EXPLAIN <select>` plans without executing and returns the plan as a
  /// one-column result: a Fetch header (which encrypted column, how many
  /// coalesced segments) plus the local operator tree with the planner's
  /// cardinality estimates. `EXPLAIN ANALYZE <select>` executes the
  /// statement under a fresh trace (regardless of EnableTracing) and
  /// annotates each operator with actuals — rows, Next() calls, inclusive
  /// nanoseconds, index entries/nodes — followed by the query-level
  /// resource vector: the trace id and every counter credited to the trace.
  /// That is the session's real/fake query mix (proxy.*), its statement
  /// and range counts (session.*), OPE calls (ope.*), wire traffic
  /// (net.client.*), and the server's work (engine.*, storage.*), which an
  /// embedded server credits directly and a remote one returns in each
  /// reply's profile. Readable afterwards via last_trace().
  Result<sql::SqlResult> Execute(const std::string& sql_text);

  /// Accounting for the most recent Execute call.
  struct SessionStats {
    uint64_t ranges_fetched = 0;   ///< Plaintext ranges sent to the proxy.
    uint64_t rows_fetched = 0;     ///< Rows surviving the proxy's filter.
    uint64_t real_queries = 0;     ///< Fixed-length real queries executed.
    uint64_t fake_queries = 0;     ///< Fake queries executed.
    uint64_t server_requests = 0;  ///< Batched server round trips.
  };
  const SessionStats& last_stats() const { return stats_; }

  /// Turns on per-query tracing: every subsequent Execute builds a fresh
  /// span tree (parse → per-segment fetch with sample/encrypt/round-trip/
  /// decrypt children → local_exec), readable via last_trace(). `clock` must
  /// outlive the session; nullptr selects SystemClock(). Tests pass a
  /// ManualClock so the recorded timings are deterministic.
  void EnableTracing(obs::Clock* clock = nullptr) {
    tracing_enabled_ = true;
    trace_clock_ = clock;
  }
  void DisableTracing() {
    tracing_enabled_ = false;
    last_trace_.reset();
  }

  /// Span tree and counters of the most recent Execute, or null if tracing
  /// is off (or nothing ran yet). EXPLAIN ANALYZE always records one.
  const obs::Trace* last_trace() const { return last_trace_.get(); }

 private:
  /// The per-statement fetch decision: which encrypted column, through which
  /// proxy, over which coalesced ciphertext segments.
  struct FetchPlan {
    std::string enc_column;
    Proxy* proxy = nullptr;
    uint64_t domain = 0;
    std::vector<Segment> segments;
  };

  /// Execute minus the trace bookkeeping (runs with the trace, if any,
  /// already active on this thread).
  Result<sql::SqlResult> ExecuteImpl(const std::string& sql_text);
  /// The EXPLAIN [ANALYZE] path: renders the fetch + local plan, executing
  /// (and annotating actuals + resources) only when `analyze` is set.
  Result<sql::SqlResult> ExplainImpl(sql::SelectStmt stmt, bool analyze);

  /// Resolves the encrypted column and extracts/coalesces the fetch ranges.
  Result<FetchPlan> PlanFetch(const sql::SelectStmt& stmt);
  /// Runs the fetch plan through the proxy, filling stats_ and mirroring
  /// the per-statement accounting into the system registry.
  Result<std::vector<engine::Row>> FetchSegments(const FetchPlan& plan);
  /// Builds the client-side scratch catalog: fetched rows under the original
  /// table name plus copies of any attached client tables the join needs.
  Status BuildScratch(const sql::SelectStmt& stmt,
                      engine::Schema server_schema,
                      std::vector<engine::Row> fetched,
                      engine::Catalog* scratch);

  MopeSystem* system_;
  engine::Catalog client_tables_;
  SessionStats stats_;
  bool tracing_enabled_ = false;
  obs::Clock* trace_clock_ = nullptr;
  std::unique_ptr<obs::Trace> last_trace_;
};

}  // namespace mope::proxy

#endif  // MOPE_PROXY_SQL_SESSION_H_
