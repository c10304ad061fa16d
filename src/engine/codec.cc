#include "engine/codec.h"

#include <cstring>
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
  MOPE_ASSIGN_OR_RETURN(uint8_t tag, Byte());
  Value out;
  switch (tag) {
    case 0: {
      MOPE_ASSIGN_OR_RETURN(uint64_t bits, U64());
      out = static_cast<int64_t>(bits);
      break;
    }
    case 1: {
      MOPE_ASSIGN_OR_RETURN(uint64_t bits, U64());
      double d;
      std::memcpy(&d, &bits, 8);
      out = d;
      break;
    }
    case 2: {
      MOPE_ASSIGN_OR_RETURN(std::string s, String());
      out = std::move(s);
      break;
    }
    default:
      return UnknownTag();
  }
  return out;
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
