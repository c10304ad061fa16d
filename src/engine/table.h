#ifndef MOPE_ENGINE_TABLE_H_
#define MOPE_ENGINE_TABLE_H_

/// \file table.h
/// Row-store tables with typed schemas and secondary B+-tree indexes.
///
/// The server-side storage substrate. In the MOPE architecture the server
/// stores ciphertext columns (uint64) for every attribute that supports
/// range predicates, plus ordinary columns for everything else; the engine
/// is agnostic — it just stores and indexes values.
///
/// A table stores each row as its codec bytes (engine/codec.h): one byte
/// arena holds every row's PutValue encodings in RowId order, and one
/// offset per row says where it starts (a row ends where the next begins).
/// A reply row, a WAL insert record and a snapshot row are each a copy of
/// those bytes; a Row is decoded only when a reader asks for one. A
/// lineitem row costs 81 bytes of arena plus its 8-byte offset, where a
/// `vector<Value>` costs about 400 bytes of heap.
///
/// Widths: UpdateValue overwrites a value of the same encoded width in
/// place. Every int and double encodes to 9 bytes, so MOPE key rotation
/// never moves a row. A string of another length shifts the arena's tail
/// and every later row's offset, O(table bytes) per update; in src/ only
/// WAL replay of a string update does that.

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"
#include "engine/btree.h"

namespace mope::engine {

/// Column types supported by the engine.
enum class ValueType : uint8_t { kInt, kDouble, kString };

/// A single cell. Int columns hold both plaintext integers and MOPE
/// ciphertexts (which are just integers to the server).
using Value = std::variant<int64_t, double, std::string>;

ValueType TypeOf(const Value& v);
std::string ValueToString(const Value& v);

/// A row: one Value per schema column.
using Row = std::vector<Value>;

/// Row identifier: dense index into the table's rows.
using RowId = uint64_t;

struct Column {
  std::string name;
  ValueType type;
};

/// A table schema: ordered, named, typed columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the named column, or NotFound.
  Result<size_t> IndexOf(const std::string& name) const;

  /// OK when the row matches the schema arity and column types.
  Status Validate(const Row& row) const;

 private:
  std::vector<Column> columns_;
  std::map<std::string, size_t> by_name_;
};

/// Durability hooks: a Table with hooks installed reports every mutation
/// *before* applying it in memory, after all validation has passed. The
/// implementation (engine::DurableCatalog) writes the mutation ahead into
/// the storage engine's WAL; a hook failure aborts the mutation with
/// nothing applied on either side. A Table without hooks (the default) is
/// the original purely in-memory engine.
class TableDurabilityHooks {
 public:
  virtual ~TableDurabilityHooks() = default;

  /// `id` is the RowId the row is about to receive; `values` are its
  /// `count` PutValue encodings, exactly as the table stores them.
  virtual Status OnInsert(RowId id, uint64_t count,
                          std::string_view values) = 0;
  virtual Status OnUpdateValue(RowId id, size_t column, const Value& value) = 0;
  virtual Status OnCreateIndex(size_t column) = 0;
};

class CheckedRow;  // engine/codec.h

/// An in-memory row-store table with optional secondary indexes; rows live
/// in a byte arena (see the file comment).
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t row_count() const { return offsets_.size(); }

  /// Validates a row, encodes it once at the arena's tail, hands those
  /// bytes to the durability hook, then updates the indexes. Returns the
  /// RowId. A hook failure truncates the tail again: nothing is applied.
  Result<RowId> Insert(const Row& row);

  /// Insert for a row the codec's reader has already checked (snapshot
  /// load, WAL replay): its bytes are appended as they are, and no Row is
  /// built. InvalidArgument, as from Insert, when its value count or a
  /// value's type disagrees with the schema or an indexed int is negative.
  /// `row` must not view this table's own arena, which the append may move.
  Result<RowId> InsertChecked(const CheckedRow& row);

  /// Row `id`, decoded. Precondition: id < row_count().
  Row row(RowId id) const;
  /// Decodes row `id` into `*out`, reusing its storage (see
  /// CheckedRow::BuildInto). Precondition: id < row_count().
  void ReadRow(RowId id, Row* out) const;
  /// Row `id`'s stored bytes: schema().num_columns() PutValue encodings,
  /// valid until the table is next mutated. Precondition: id < row_count().
  std::string_view row_bytes(RowId id) const;
  /// Every row's bytes, in RowId order (a snapshot's row section).
  std::string_view arena() const {
    return std::string_view(arena_.data(), arena_.size());
  }

  /// Replaces one cell, keeping any index on that column consistent (used
  /// by MOPE key rotation, which rewrites the whole ciphertext column). See
  /// the file comment for when a row moves.
  Status UpdateValue(RowId id, size_t column, const Value& value);

  /// Creates a B+-tree index over an int column. Fails on non-int columns
  /// or negative stored values (MOPE ciphertexts are always non-negative).
  Status CreateIndex(const std::string& column_name);

  /// The index on the named column, or NotFound.
  Result<const BPlusTree*> GetIndex(const std::string& column_name) const;

  bool HasIndex(const std::string& column_name) const;

  /// Installs (or clears, with nullptr) the durability hooks. The hooks
  /// object must outlive the table or the next set_durability_hooks call.
  void set_durability_hooks(TableDurabilityHooks* hooks) { hooks_ = hooks; }

 private:
  /// The int a checked row holds at `column`.
  int64_t IntAt(std::string_view row, size_t column) const;
  /// Completes an insert whose bytes were just appended at `at`: the
  /// indexed-int check, the hook, the indexes, the offset. On failure the
  /// arena is truncated back to `at`.
  Result<RowId> Commit(size_t at);

  std::string name_;
  Schema schema_;
  /// A byte buffer grown with realloc by a sixteenth of its size. glibc
  /// grows a large block by remapping its pages (mremap), so growing copies
  /// nothing and faults in only the new pages, and a loaded table keeps at
  /// most a sixteenth more heap than its bytes.
  class Arena {
   public:
    Arena() = default;
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;
    ~Arena() { std::free(data_); }

    char* data() { return data_; }
    const char* data() const { return data_; }
    size_t size() const { return size_; }
    /// Appends `n` bytes for the caller to fill; returns where they start.
    char* Append(size_t n);
    /// Drops the bytes from `size` on.
    void Truncate(size_t size) { size_ = size; }
    /// Replaces the `old_size` bytes at `at` with `n` bytes for the caller
    /// to fill, moving the bytes behind them; returns where they start.
    char* Splice(size_t at, size_t old_size, size_t n);

   private:
    char* data_ = nullptr;
    size_t size_ = 0;
    size_t capacity_ = 0;
  };

  Arena arena_;                    ///< Every row's bytes, in RowId order.
  std::vector<uint64_t> offsets_;  ///< Where each row starts in arena_.
  // column index -> B+-tree over that column's int values.
  std::map<size_t, std::unique_ptr<BPlusTree>> indexes_;
  TableDurabilityHooks* hooks_ = nullptr;
};

/// Catalog-level durability hooks: DDL counterparts of TableDurabilityHooks.
class CatalogDurabilityHooks {
 public:
  virtual ~CatalogDurabilityHooks() = default;

  /// Called before the table becomes visible. Returns the per-table hooks
  /// to install on it (the implementation logs the new table here).
  virtual Result<TableDurabilityHooks*> OnCreateTable(const std::string& name,
                                                      const Schema& schema) = 0;
  virtual Status OnDropTable(const std::string& name) = 0;
};

/// The server's catalog of tables.
class Catalog {
 public:
  /// Creates a table; AlreadyExists when the name is taken.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Removes a table (and its indexes); NotFound when absent. Used to roll
  /// back a partially populated table when a bulk load fails midway.
  Status DropTable(const std::string& name);

  /// Looks a table up; NotFound when absent.
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Installs (or clears) the DDL durability hooks.
  void set_durability_hooks(CatalogDurabilityHooks* hooks) { hooks_ = hooks; }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  CatalogDurabilityHooks* hooks_ = nullptr;
};

}  // namespace mope::engine

#endif  // MOPE_ENGINE_TABLE_H_
