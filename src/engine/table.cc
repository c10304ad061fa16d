#include "engine/table.h"

#include <utility>

namespace mope::engine {

ValueType TypeOf(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) return ValueType::kInt;
  if (std::holds_alternative<double>(v)) return ValueType::kDouble;
  return ValueType::kString;
}

std::string ValueToString(const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kInt:
      return std::to_string(std::get<int64_t>(v));
    case ValueType::kDouble:
      return std::to_string(std::get<double>(v));
    case ValueType::kString:
      return std::get<std::string>(v);
  }
  return "";
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    by_name_[columns_[i].name] = i;
  }
  MOPE_CHECK(by_name_.size() == columns_.size(), "duplicate column names");
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no column named '" + name + "'");
  }
  return it->second;
}

Status Schema::Validate(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, schema expects " +
        std::to_string(columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (TypeOf(row[i]) != columns_[i].type) {
      return Status::InvalidArgument("type mismatch in column '" +
                                     columns_[i].name + "'");
    }
  }
  return Status::OK();
}

Result<RowId> Table::Insert(Row row) {
  MOPE_RETURN_NOT_OK(schema_.Validate(row));
  // Validate every indexed column before touching any index: failing after a
  // partial index update would leave a dangling entry for a RowId that the
  // next successful insert then reuses.
  for (const auto& [col, index] : indexes_) {
    if (std::get<int64_t>(row[col]) < 0) {
      return Status::InvalidArgument("indexed column value must be >= 0");
    }
  }
  const RowId id = rows_.size();
  if (hooks_ != nullptr) {
    // Write-ahead: the row reaches the log before memory.
    MOPE_RETURN_NOT_OK(hooks_->OnInsert(id, row));
  }
  for (auto& [col, index] : indexes_) {
    index->Insert(static_cast<uint64_t>(std::get<int64_t>(row[col])), id);
  }
  rows_.push_back(std::move(row));
  return id;
}

const Row& Table::row(RowId id) const {
  MOPE_CHECK(id < rows_.size(), "row id out of range");
  return rows_[id];
}

Status Table::UpdateValue(RowId id, size_t column, Value value) {
  if (id >= rows_.size()) {
    return Status::OutOfRange("row id out of range");
  }
  if (column >= schema_.num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  if (TypeOf(value) != schema_.column(column).type) {
    return Status::InvalidArgument("type mismatch in column '" +
                                   schema_.column(column).name + "'");
  }
  const auto it = indexes_.find(column);
  if (it != indexes_.end() && std::get<int64_t>(value) < 0) {
    return Status::InvalidArgument("indexed column value must be >= 0");
  }
  if (hooks_ != nullptr) {
    MOPE_RETURN_NOT_OK(hooks_->OnUpdateValue(id, column, value));
  }
  if (it != indexes_.end()) {
    const int64_t new_key = std::get<int64_t>(value);
    const int64_t old_key = std::get<int64_t>(rows_[id][column]);
    if (!it->second->Erase(static_cast<uint64_t>(old_key), id)) {
      return Status::Internal("index entry missing during update");
    }
    it->second->Insert(static_cast<uint64_t>(new_key), id);
  }
  rows_[id][column] = std::move(value);
  return Status::OK();
}

Status Table::CreateIndex(const std::string& column_name) {
  MOPE_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(column_name));
  if (schema_.column(col).type != ValueType::kInt) {
    return Status::NotSupported("indexes are supported on int columns only");
  }
  if (indexes_.contains(col)) {
    return Status::AlreadyExists("index on '" + column_name + "' exists");
  }
  // Validate every existing row before the hook fires: a durable
  // create-index record must never describe an index the build then
  // abandons halfway.
  for (RowId id = 0; id < rows_.size(); ++id) {
    if (std::get<int64_t>(rows_[id][col]) < 0) {
      return Status::InvalidArgument("indexed column value must be >= 0");
    }
  }
  if (hooks_ != nullptr) {
    MOPE_RETURN_NOT_OK(hooks_->OnCreateIndex(col));
  }
  auto index = std::make_unique<BPlusTree>();
  for (RowId id = 0; id < rows_.size(); ++id) {
    index->Insert(static_cast<uint64_t>(std::get<int64_t>(rows_[id][col])),
                  id);
  }
  indexes_[col] = std::move(index);
  return Status::OK();
}

Result<const BPlusTree*> Table::GetIndex(const std::string& column_name) const {
  MOPE_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(column_name));
  const auto it = indexes_.find(col);
  if (it == indexes_.end()) {
    return Status::NotFound("no index on '" + column_name + "'");
  }
  return static_cast<const BPlusTree*>(it->second.get());
}

bool Table::HasIndex(const std::string& column_name) const {
  const auto col = schema_.IndexOf(column_name);
  return col.ok() && indexes_.contains(col.value());
}

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema) {
  if (tables_.contains(name)) {
    return Status::AlreadyExists("table '" + name + "' exists");
  }
  auto table = std::make_unique<Table>(name, std::move(schema));
  if (hooks_ != nullptr) {
    MOPE_ASSIGN_OR_RETURN(TableDurabilityHooks * table_hooks,
                          hooks_->OnCreateTable(name, table->schema()));
    table->set_durability_hooks(table_hooks);
  }
  Table* raw = table.get();
  tables_[name] = std::move(table);
  return raw;
}

Status Catalog::DropTable(const std::string& name) {
  if (!tables_.contains(name)) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  if (hooks_ != nullptr) {
    MOPE_RETURN_NOT_OK(hooks_->OnDropTable(name));
  }
  tables_.erase(name);
  return Status::OK();
}

Result<Table*> Catalog::GetTable(const std::string& name) {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  return it->second.get();
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  return static_cast<const Table*>(it->second.get());
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace mope::engine
