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

Status RowFaultStatus(RowFault fault, const char* context) {
  switch (fault) {
    case RowFault::kNone:
      break;
    case RowFault::kTruncated:
      return Status::Corruption(std::string(context) + " truncated");
    case RowFault::kStringOutOfBounds:
      return Status::Corruption(std::string(context) +
                                " string length out of bounds");
    case RowFault::kUnknownTag:
      return Status::Corruption(std::string("unknown value tag in ") +
                                context);
  }
  return Status::OK();
}

Result<std::string> ByteReader::String() {
  MOPE_ASSIGN_OR_RETURN(uint64_t len, U64());
  if (len > bytes_.size() - pos_) {
    return RowFaultStatus(RowFault::kStringOutOfBounds, context_);
  }
  std::string s(bytes_.substr(pos_, len));
  pos_ += len;
  return s;
}

Result<Value> ByteReader::ReadValue() {
  MOPE_ASSIGN_OR_RETURN(const CheckedRow one, CheckRow(1));
  const char* p = one.begin_;
  return CheckedRow::BuildValue(&p);
}

RowFault CheckedRow::Walk(const char* begin, const char* end, uint64_t count,
                          uint64_t locate, CheckedRow* row) {
  constexpr auto kString = static_cast<uint8_t>(ValueType::kString);
  const char* located = nullptr;
  const char* p = begin;
  for (uint64_t c = 0; c < count; ++c) {
    if (c == locate) located = p;
    if (end - p < 9) return RowFault::kTruncated;
    const auto tag = static_cast<uint8_t>(*p);
    p += 9;
    if (tag == kString) {
      const uint64_t len = LoadU64(p - 8);
      if (len > static_cast<uint64_t>(end - p)) {
        return RowFault::kStringOutOfBounds;
      }
      p += len;
    } else if (tag > kString) {
      return RowFault::kUnknownTag;
    }
  }
  *row = CheckedRow(begin, p, count, located);
  return RowFault::kNone;
}

Result<CheckedRow> ByteReader::CheckRow(uint64_t count, uint64_t locate) {
  CheckedRow row;
  const RowFault fault =
      CheckedRow::Check(bytes_.data() + pos_, bytes_.data() + bytes_.size(),
                        count, locate, &row);
  if (fault != RowFault::kNone) return RowFaultStatus(fault, context_);
  pos_ = static_cast<size_t>(row.end_ - bytes_.data());
  return row;
}

namespace {

/// The size of the checked encoding at `p`.
size_t EncodingSize(const char* p) {
  return *p == static_cast<char>(ValueType::kString)
             ? 9 + static_cast<size_t>(LoadU64(p + 1))
             : 9;
}

}  // namespace

std::string_view CheckedRow::LocatedValue() const {
  if (located_ == nullptr) return std::string_view();
  return std::string_view(located_, EncodingSize(located_));
}

std::optional<size_t> CheckedRow::FirstTypeMismatch(
    const Schema& schema) const {
  const char* p = begin_;
  for (size_t c = 0; c < count_; ++c) {
    if (*p != static_cast<char>(schema.column(c).type)) return c;
    p += EncodingSize(p);
  }
  return std::nullopt;
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
  BuildInto(&row);
  return row;
}

void CheckedRow::BuildInto(Row* out) const {
  out->resize(count_);
  const char* p = begin_;
  for (Value& v : *out) {
    if (*p != static_cast<char>(ValueType::kString)) {
      v = BuildValue(&p);
      continue;
    }
    auto* s = std::get_if<std::string>(&v);
    if (s == nullptr) s = &v.emplace<std::string>();
    const uint64_t len = LoadU64(p + 1);
    s->assign(p + 9, len);
    p += 9 + len;
  }
}

CheckedRow CheckStoredRow(std::string_view bytes, uint64_t count,
                          uint64_t locate) {
  ByteReader reader(bytes, "table row");
  const Result<CheckedRow> row = reader.CheckRow(count, locate);
  MOPE_CHECK(row.ok() && reader.AtEnd(), "stored rows are checked");
  return *row;
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
