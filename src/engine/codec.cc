#include "engine/codec.h"

#include <cstring>
#include <set>

namespace mope::engine {

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

void PutValue(std::string* out, const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kInt:
      out->push_back(0);
      PutU64(out, static_cast<uint64_t>(std::get<int64_t>(v)));
      break;
    case ValueType::kDouble: {
      out->push_back(1);
      uint64_t bits;
      const double d = std::get<double>(v);
      std::memcpy(&bits, &d, 8);
      PutU64(out, bits);
      break;
    }
    case ValueType::kString:
      out->push_back(2);
      PutString(out, std::get<std::string>(v));
      break;
  }
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

Result<uint8_t> ByteReader::Byte() {
  if (pos_ >= bytes_.size()) return Truncated();
  return static_cast<uint8_t>(bytes_[pos_++]);
}

Result<uint32_t> ByteReader::U32() {
  if (pos_ + 4 > bytes_.size()) return Truncated();
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::U64() {
  if (pos_ + 8 > bytes_.size()) return Truncated();
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<std::string> ByteReader::String() {
  MOPE_ASSIGN_OR_RETURN(uint64_t len, U64());
  if (len > bytes_.size() - pos_) {
    return Status::Corruption(std::string(context_) +
                              " string length out of bounds");
  }
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
      return Status::Corruption(std::string("unknown value tag in ") +
                                context_);
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
