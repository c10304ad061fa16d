#include "engine/table.h"

#include <cstring>
#include <new>
#include <optional>
#include <utility>

#include "engine/codec.h"

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

char* Table::Arena::Append(size_t n) {
  const size_t at = size_;
  const size_t need = size_ + n;
  if (need > capacity_) {
    const size_t capacity = need + need / 16;
    char* grown = static_cast<char*>(std::realloc(data_, capacity));
    if (grown == nullptr) throw std::bad_alloc();
    data_ = grown;
    capacity_ = capacity;
  }
  size_ = need;
  return data_ + at;
}

char* Table::Arena::Splice(size_t at, size_t old_size, size_t n) {
  const size_t tail = size_ - at - old_size;
  if (n > old_size) {
    Append(n - old_size);
  } else {
    size_ -= old_size - n;
  }
  std::memmove(data_ + at + n, data_ + at + old_size, tail);
  return data_ + at;
}

namespace {

Status NegativeIndexedValue() {
  return Status::InvalidArgument("indexed column value must be >= 0");
}

}  // namespace

Result<RowId> Table::Insert(const Row& row) {
  MOPE_RETURN_NOT_OK(schema_.Validate(row));
  size_t size = 0;
  for (const Value& v : row) size += EncodedSize(v);
  const size_t at = arena_.size();
  char* p = arena_.Append(size);
  for (const Value& v : row) p = WriteValue(p, v);
  return Commit(at);
}

Result<RowId> Table::InsertChecked(const CheckedRow& row) {
  if (row.count() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.count()) + " values, schema expects " +
        std::to_string(schema_.num_columns()));
  }
  if (const std::optional<size_t> c = row.FirstTypeMismatch(schema_)) {
    return Status::InvalidArgument("type mismatch in column '" +
                                   schema_.column(*c).name + "'");
  }
  const size_t at = arena_.size();
  const std::string_view bytes = row.bytes();
  if (!bytes.empty()) {
    std::memcpy(arena_.Append(bytes.size()), bytes.data(), bytes.size());
  }
  return Commit(at);
}

Result<RowId> Table::Commit(size_t at) {
  const std::string_view bytes(arena_.data() + at, arena_.size() - at);
  // Check every indexed column before touching any index: failing after a
  // partial index update would leave a dangling entry for a RowId that the
  // next successful insert then reuses.
  for (const auto& [col, index] : indexes_) {
    if (IntAt(bytes, col) < 0) {
      arena_.Truncate(at);
      return NegativeIndexedValue();
    }
  }
  const RowId id = offsets_.size();
  if (hooks_ != nullptr) {
    // Write-ahead: the row reaches the log before memory.
    const Status logged = hooks_->OnInsert(id, schema_.num_columns(), bytes);
    if (!logged.ok()) {
      arena_.Truncate(at);
      return logged;
    }
  }
  for (auto& [col, index] : indexes_) {
    index->Insert(static_cast<uint64_t>(IntAt(bytes, col)), id);
  }
  // The offsets grow by an eighth, not by doubling, so a loaded table keeps
  // at most an eighth more heap for them than they use.
  if (offsets_.size() == offsets_.capacity()) {
    offsets_.reserve(offsets_.size() + offsets_.size() / 8 + 1);
  }
  offsets_.push_back(at);
  return id;
}

int64_t Table::IntAt(std::string_view row, size_t column) const {
  const std::optional<int64_t> value =
      CheckStoredRow(row, schema_.num_columns(), column).LocatedInt();
  MOPE_CHECK(value.has_value(), "int column holds an int");
  return *value;
}

std::string_view Table::row_bytes(RowId id) const {
  MOPE_CHECK(id < offsets_.size(), "row id out of range");
  const size_t end =
      id + 1 < offsets_.size() ? offsets_[id + 1] : arena_.size();
  return std::string_view(arena_.data() + offsets_[id], end - offsets_[id]);
}

void Table::ReadRow(RowId id, Row* out) const {
  CheckStoredRow(row_bytes(id), schema_.num_columns()).BuildInto(out);
}

Row Table::row(RowId id) const {
  Row out;
  ReadRow(id, &out);
  return out;
}

Status Table::UpdateValue(RowId id, size_t column, const Value& value) {
  if (id >= offsets_.size()) {
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
    return NegativeIndexedValue();
  }
  if (hooks_ != nullptr) {
    MOPE_RETURN_NOT_OK(hooks_->OnUpdateValue(id, column, value));
  }
  const CheckedRow stored =
      CheckStoredRow(row_bytes(id), schema_.num_columns(), column);
  const std::string_view old = stored.LocatedValue();
  if (it != indexes_.end()) {
    const int64_t new_key = std::get<int64_t>(value);
    const int64_t old_key = *stored.LocatedInt();
    if (!it->second->Erase(static_cast<uint64_t>(old_key), id)) {
      return Status::Internal("index entry missing during update");
    }
    it->second->Insert(static_cast<uint64_t>(new_key), id);
  }
  const size_t at = static_cast<size_t>(old.data() - arena_.data());
  const size_t old_size = old.size();
  const size_t new_size = EncodedSize(value);
  if (new_size == old_size) {
    WriteValue(arena_.data() + at, value);
    return Status::OK();
  }
  // A width change moves the arena's tail and every later row's start.
  WriteValue(arena_.Splice(at, old_size, new_size), value);
  for (RowId r = id + 1; r < offsets_.size(); ++r) {
    offsets_[r] = offsets_[r] - old_size + new_size;
  }
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
  std::vector<uint64_t> keys;
  keys.reserve(offsets_.size());
  for (RowId id = 0; id < offsets_.size(); ++id) {
    const int64_t key = IntAt(row_bytes(id), col);
    if (key < 0) return NegativeIndexedValue();
    keys.push_back(static_cast<uint64_t>(key));
  }
  if (hooks_ != nullptr) {
    MOPE_RETURN_NOT_OK(hooks_->OnCreateIndex(col));
  }
  auto index = std::make_unique<BPlusTree>();
  for (RowId id = 0; id < keys.size(); ++id) index->Insert(keys[id], id);
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
