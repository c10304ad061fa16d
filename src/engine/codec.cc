#include "engine/codec.h"

#include <bit>
#include <set>

namespace mope::engine {

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

void PutValue(std::string* out, const Value& v) {
  const size_t at = out->size();
  out->resize(at + EncodedSize(v));
  WriteValue(out->data() + at, v);
}

void PutColumns(std::string* out, const Schema& schema) {
  for (const Column& col : schema.columns()) {
    PutString(out, col.name);
    out->push_back(static_cast<char>(col.type));
  }
}

void PutSchema(std::string* out, const Schema& schema) {
  PutU64(out, schema.num_columns());
  PutColumns(out, schema);
}

Status ByteReader::UnknownTag() const {
  return Status::Corruption(std::string("unknown value tag in ") + context_);
}

Status ByteReader::StringOutOfBounds() const {
  return Status::Corruption(std::string(context_) +
                            " string length out of bounds");
}

Result<std::string> ByteReader::String() {
  MOPE_ASSIGN_OR_RETURN(uint64_t len, U64());
  if (len > bytes_.size() - pos_) return StringOutOfBounds();
  std::string s(bytes_.substr(pos_, len));
  pos_ += len;
  return s;
}

Result<Value> ByteReader::ReadValue() {
  MOPE_ASSIGN_OR_RETURN(const CheckedRow one, CheckRow(1));
  const char* p = one.begin_;
  return CheckedRow::BuildValue(&p);
}

Result<CheckedRow> ByteReader::CheckRow(uint64_t count, uint64_t locate) {
  // Every encoding takes at least 9 bytes, so a hostile count fails here,
  // before the walk.
  if (count > remaining() / 9) return Truncated();
  const char* const begin = bytes_.data() + pos_;
  const char* const end = bytes_.data() + bytes_.size();
  const char* located = nullptr;
  const char* p = begin;
  for (uint64_t c = 0; c < count; ++c) {
    if (c == locate) located = p;
    if (end - p < 9) return Truncated();
    const auto tag = static_cast<uint8_t>(*p);
    p += 9;
    if (tag == static_cast<uint8_t>(ValueType::kString)) {
      const uint64_t len = LoadU64(p - 8);
      if (len > static_cast<uint64_t>(end - p)) return StringOutOfBounds();
      p += len;
    } else if (tag > static_cast<uint8_t>(ValueType::kString)) {
      return UnknownTag();
    }
  }
  pos_ = static_cast<size_t>(p - bytes_.data());
  return CheckedRow(begin, count, located);
}

Value CheckedRow::BuildValue(const char** p) {
  const auto tag = static_cast<ValueType>(**p);
  const uint64_t bits = LoadU64(*p + 1);
  *p += 9;
  switch (tag) {
    case ValueType::kInt:
      return static_cast<int64_t>(bits);
    case ValueType::kDouble:
      return std::bit_cast<double>(bits);
    case ValueType::kString:
      break;
  }
  const char* s = *p;
  *p += bits;
  return Value(std::in_place_type<std::string>, s, bits);
}

Row CheckedRow::Build() const {
  Row row;
  row.reserve(count_);
  const char* p = begin_;
  for (uint64_t c = 0; c < count_; ++c) row.push_back(BuildValue(&p));
  return row;
}

Result<Schema> ByteReader::ReadSchema() {
  MOPE_ASSIGN_OR_RETURN(uint64_t num_columns, U64());
  if (num_columns == 0 || num_columns > kMaxColumns) {
    return Status::Corruption(std::string("implausible column count in ") +
                              context_);
  }
  return ReadColumns(num_columns);
}

Result<Schema> ByteReader::ReadColumns(uint64_t count) {
  std::vector<Column> columns;
  std::set<std::string> names;
  for (uint64_t c = 0; c < count; ++c) {
    Column col;
    MOPE_ASSIGN_OR_RETURN(col.name, String());
    MOPE_ASSIGN_OR_RETURN(uint8_t type, Byte());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::Corruption(std::string("unknown column type in ") +
                                context_);
    }
    // Schema's constructor aborts on a repeated name; bytes must not.
    if (!names.insert(col.name).second) {
      return Status::Corruption(std::string("duplicate column name in ") +
                                context_);
    }
    col.type = static_cast<ValueType>(type);
    columns.push_back(std::move(col));
  }
  return Schema(std::move(columns));
}

}  // namespace mope::engine
