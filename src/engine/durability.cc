#include "engine/durability.h"

#include <utility>
#include <vector>

#include "engine/codec.h"
#include "engine/snapshot.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace mope::engine {

namespace {

// --- WAL record codec -----------------------------------------------------
// Every payload is a 1-byte op tag and the table name, then the op's fields.
constexpr uint8_t kOpCreateTable = 1;  // [schema]
constexpr uint8_t kOpDropTable = 2;    // (none)
constexpr uint8_t kOpCreateIndex = 3;  // [u64 column]
constexpr uint8_t kOpInsert = 4;       // [u64 n][n values]
constexpr uint8_t kOpUpdateValue = 5;  // [u64 row id][u64 column][value]

std::string RecordHeader(uint8_t op, const std::string& table) {
  std::string out;
  out.push_back(static_cast<char>(op));
  PutString(&out, table);
  return out;
}

/// Applies one logged mutation through the public API, so the same
/// validation that guarded the original call checks the replayed one.
Status ApplyRecord(std::string_view payload, Catalog* catalog) {
  ByteReader reader(payload, "WAL record");
  MOPE_ASSIGN_OR_RETURN(uint8_t op, reader.Byte());
  MOPE_ASSIGN_OR_RETURN(std::string name, reader.String());
  if (op == kOpCreateTable) {
    MOPE_ASSIGN_OR_RETURN(Schema schema, reader.ReadSchema());
    MOPE_RETURN_NOT_OK(catalog->CreateTable(name, std::move(schema)).status());
  } else if (op == kOpDropTable) {
    MOPE_RETURN_NOT_OK(catalog->DropTable(name));
  } else {
    MOPE_ASSIGN_OR_RETURN(Table * table, catalog->GetTable(name));
    switch (op) {
      case kOpCreateIndex: {
        MOPE_ASSIGN_OR_RETURN(uint64_t column, reader.U64());
        if (column >= table->schema().num_columns()) {
          return Status::Corruption("index on unknown column");
        }
        MOPE_RETURN_NOT_OK(
            table->CreateIndex(table->schema().column(column).name));
        break;
      }
      case kOpInsert: {
        // The count is the record's claim: ReadRow checks it against the
        // bytes before reserving anything.
        MOPE_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
        MOPE_ASSIGN_OR_RETURN(Row row, reader.ReadRow(n));
        MOPE_RETURN_NOT_OK(table->Insert(std::move(row)).status());
        break;
      }
      case kOpUpdateValue: {
        MOPE_ASSIGN_OR_RETURN(uint64_t id, reader.U64());
        MOPE_ASSIGN_OR_RETURN(uint64_t column, reader.U64());
        MOPE_ASSIGN_OR_RETURN(Value value, reader.ReadValue());
        MOPE_RETURN_NOT_OK(table->UpdateValue(id, column, std::move(value)));
        break;
      }
      default:
        return Status::Corruption("unknown op " + std::to_string(op));
    }
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes");
  return Status::OK();
}

}  // namespace

// --- Per-table hooks -------------------------------------------------------

class DurableCatalog::TableLog : public TableDurabilityHooks {
 public:
  TableLog(DurableCatalog* owner, std::string name)
      : owner_(owner), name_(std::move(name)) {}

  Status OnInsert(RowId /*id*/, const Row& row) override {
    std::string record = RecordHeader(kOpInsert, name_);
    PutU64(&record, row.size());
    for (const Value& v : row) PutValue(&record, v);
    return owner_->Log(record);
  }

  Status OnUpdateValue(RowId id, size_t column, const Value& value) override {
    std::string record = RecordHeader(kOpUpdateValue, name_);
    PutU64(&record, id);
    PutU64(&record, column);
    PutValue(&record, value);
    return owner_->Log(record);
  }

  Status OnCreateIndex(size_t column) override {
    std::string record = RecordHeader(kOpCreateIndex, name_);
    PutU64(&record, column);
    return owner_->Log(record);
  }

 private:
  DurableCatalog* const owner_;
  const std::string name_;
};

// --- DurableCatalog --------------------------------------------------------

DurableCatalog::DurableCatalog(Catalog* catalog,
                               std::unique_ptr<storage::StorageEngine> e)
    : catalog_(catalog), engine_(std::move(e)) {}

DurableCatalog::~DurableCatalog() {
  catalog_->set_durability_hooks(nullptr);
  for (const auto& [name, hooks] : tables_) {
    auto table = catalog_->GetTable(name);
    if (table.ok()) table.value()->set_durability_hooks(nullptr);
  }
}

Result<std::unique_ptr<DurableCatalog>> DurableCatalog::Open(
    const std::string& dir, Catalog* catalog, const Options& options) {
  if (!catalog->TableNames().empty()) {
    return Status::InvalidArgument(
        "DurableCatalog::Open requires an empty catalog");
  }
  storage::StorageOptions storage_options;
  storage_options.wal_sync_every = options.wal_sync_every;
  storage_options.env = options.env;
  storage_options.metrics = options.metrics;
  storage_options.clock = options.clock;
  MOPE_ASSIGN_OR_RETURN(std::unique_ptr<storage::StorageEngine> engine,
                        storage::StorageEngine::Open(dir, storage_options));
  std::unique_ptr<DurableCatalog> durable(
      new DurableCatalog(catalog, std::move(engine)));
  MOPE_RETURN_NOT_OK(durable->Recover());
  return durable;
}

Status DurableCatalog::Recover() {
  const obs::ScopedSpan span("engine.recovery");
  {
    const std::string image = engine_->TakeImage();
    if (!image.empty()) {
      MOPE_ASSIGN_OR_RETURN(Catalog restored, DeserializeCatalog(image));
      *catalog_ = std::move(restored);
    }
  }
  {
    const std::vector<storage::WalRecord> records = engine_->TakeRecords();
    for (const storage::WalRecord& record : records) {
      const Status applied = ApplyRecord(record.payload, catalog_);
      if (!applied.ok()) {
        return Status::Corruption("WAL record at LSN " +
                                  std::to_string(record.lsn) + ": " +
                                  applied.message());
      }
    }
  }

  // From here on, every mutation is write-ahead logged.
  catalog_->set_durability_hooks(this);
  for (const std::string& name : catalog_->TableNames()) {
    MOPE_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(name));
    auto& hooks = tables_[name] = std::make_unique<TableLog>(this, name);
    table->set_durability_hooks(hooks.get());
  }

  // Retire the replayed log, and with it any torn tail: a record appended
  // behind a torn frame would never be read back.
  if (engine_->crash_recovered()) {
    MOPE_RETURN_NOT_OK(Checkpoint());
  }
  obs::LogEvent(obs::Logger::Default(),
                engine_->crash_recovered() ? obs::LogLevel::kInfo
                                           : obs::LogLevel::kDebug,
                "engine", "recovered")
      .Arg("tables", tables_.size())
      .Arg("crash_recovery", engine_->crash_recovered())
      .Arg("wal_records", engine_->recovered_records());
  return Status::OK();
}

Status DurableCatalog::Log(const std::string& record) {
  return engine_->Log(record).status();
}

Result<TableDurabilityHooks*> DurableCatalog::OnCreateTable(
    const std::string& name, const Schema& schema) {
  // The checkpoint image could not be read back otherwise.
  if (schema.num_columns() == 0 || schema.num_columns() > kMaxColumns) {
    return Status::InvalidArgument("a durable table needs 1 to " +
                                   std::to_string(kMaxColumns) + " columns");
  }
  std::string record = RecordHeader(kOpCreateTable, name);
  PutSchema(&record, schema);
  MOPE_RETURN_NOT_OK(Log(record));
  auto& hooks = tables_[name] = std::make_unique<TableLog>(this, name);
  return hooks.get();
}

Status DurableCatalog::OnDropTable(const std::string& name) {
  MOPE_RETURN_NOT_OK(Log(RecordHeader(kOpDropTable, name)));
  tables_.erase(name);
  return Status::OK();
}

Status DurableCatalog::Checkpoint() {
  const obs::ScopedSpan span("engine.checkpoint");
  MOPE_ASSIGN_OR_RETURN(std::string image, SerializeCatalog(*catalog_));
  return engine_->Checkpoint(image);
}

Status DurableCatalog::Sync() { return engine_->Sync(); }

}  // namespace mope::engine
