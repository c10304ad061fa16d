#ifndef MOPE_PROXY_CONNECTION_H_
#define MOPE_PROXY_CONNECTION_H_

/// \file connection.h
/// The proxy's view of the database server.
///
/// In the paper's deployment the server is a remote, unmodified DBMS; the
/// proxy only needs two capabilities from it: execute a batch of range
/// predicates over an indexed column, and describe a table. Abstracting
/// them behind ServerConnection lets tests inject transient failures (a
/// real network does fail) and makes the proxy location-transparent: the
/// wire protocol lives behind net::RemoteConnection (src/net/), which slots
/// in here without touching the proxy logic.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "engine/codec.h"
#include "engine/server.h"
#include "engine/table.h"

namespace mope::proxy {

class ServerConnection {
 public:
  virtual ~ServerConnection() = default;

  /// Executes a batch of (possibly wrapping) ciphertext ranges against the
  /// index on `column` of `table`; rows come back with stable row ids.
  virtual Result<std::vector<std::pair<engine::RowId, engine::Row>>>
  ExecuteRangeBatch(const std::string& table, const std::string& column,
                    const std::vector<ModularInterval>& ranges) = 0;

  /// Schema of a server table (catalog lookup).
  virtual Result<engine::Schema> GetSchema(const std::string& table) = 0;

  /// ExecuteRangeBatch that keeps only the rows whose int `key_column` value
  /// lies in `keep` (the proxy's ciphertext filter), appending them to
  /// `*kept`, and returns how many rows the server shipped. A shipped row
  /// without an int at `key_column` is Corruption: only a confused or
  /// hostile server sends one. After an error `*kept` holds nothing usable.
  /// The default filters ExecuteRangeBatch; connections that can skip
  /// building dropped rows override it.
  virtual Result<uint64_t> FetchRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges, size_t key_column,
      const ModularInterval& keep,
      std::vector<std::pair<engine::RowId, engine::Row>>* kept) {
    MOPE_ASSIGN_OR_RETURN(auto rows, ExecuteRangeBatch(table, column, ranges));
    for (auto& entry : rows) {
      MOPE_ASSIGN_OR_RETURN(const bool in,
                            KeyInRange(entry.second, key_column, keep));
      if (in) kept->push_back(std::move(entry));
    }
    return static_cast<uint64_t>(rows.size());
  }

  /// Number of rows the batch would return, without shipping them. The
  /// default fetches and counts; connections with a cheaper path (the wire
  /// protocol's count-only message, DbServer::CountRangeBatch) override it.
  virtual Result<uint64_t> CountRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) {
    MOPE_ASSIGN_OR_RETURN(auto rows, ExecuteRangeBatch(table, column, ranges));
    return static_cast<uint64_t>(rows.size());
  }

  /// The server's metrics snapshot (sorted name/value pairs, histogram
  /// buckets flattened): the live stats endpoint. Connections to servers
  /// that expose one override this; the default reports NotSupported.
  virtual Result<std::vector<std::pair<std::string, uint64_t>>>
  FetchServerStats() {
    return Status::NotSupported("this connection has no stats endpoint");
  }

 protected:
  /// FetchRangeBatch's filter on a built row.
  static Result<bool> KeyInRange(const engine::Row& row, size_t key_column,
                                 const ModularInterval& keep) {
    const int64_t* key = key_column < row.size()
                             ? std::get_if<int64_t>(&row[key_column])
                             : nullptr;
    if (key == nullptr) {
      return Status::Corruption("range batch row lacks an int key column");
    }
    return keep.Contains(static_cast<uint64_t>(*key));
  }
};

/// In-process connection to an embedded DbServer. It only forwards: the
/// engine runs on the caller's thread, so its `engine.*` and `storage.*`
/// counters credit the caller's active trace directly, under the same names
/// a remote server's profile brings back (net/remote_connection.h). An
/// embedded EXPLAIN ANALYZE therefore reports the same server-side entries
/// as a remote one.
class DirectConnection final : public ServerConnection {
 public:
  explicit DirectConnection(engine::DbServer* server) : server_(server) {}

  Result<std::vector<std::pair<engine::RowId, engine::Row>>> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    return server_->ExecuteRangeBatchWithIds(table, column, ranges);
  }

  /// Reads each visited row's key from its stored bytes and builds only
  /// the kept rows.
  Result<uint64_t> FetchRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges, size_t key_column,
      const ModularInterval& keep,
      std::vector<std::pair<engine::RowId, engine::Row>>* kept) override {
    std::vector<engine::RowId> row_ids;
    MOPE_ASSIGN_OR_RETURN(
        const engine::Table* tbl,
        server_->CollectRangeBatch(table, column, ranges, &row_ids));
    const uint64_t num_columns = tbl->schema().num_columns();
    for (const engine::RowId rid : row_ids) {
      const engine::CheckedRow row =
          engine::CheckStoredRow(tbl->row_bytes(rid), num_columns, key_column);
      const std::optional<int64_t> key = row.LocatedInt();
      if (!key.has_value()) {
        return Status::Corruption("range batch row lacks an int key column");
      }
      if (keep.Contains(static_cast<uint64_t>(*key))) {
        kept->emplace_back(rid, row.Build());
      }
    }
    return static_cast<uint64_t>(row_ids.size());
  }

  Result<engine::Schema> GetSchema(const std::string& table) override {
    MOPE_ASSIGN_OR_RETURN(const engine::Table* tbl,
                          static_cast<const engine::DbServer*>(server_)
                              ->catalog()
                              .GetTable(table));
    return tbl->schema();
  }

  Result<uint64_t> CountRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    return server_->CountRangeBatch(table, column, ranges);
  }

  Result<std::vector<std::pair<std::string, uint64_t>>> FetchServerStats()
      override {
    return server_->metrics()->Snapshot();
  }

 private:
  engine::DbServer* server_;
};

}  // namespace mope::proxy

#endif  // MOPE_PROXY_CONNECTION_H_
