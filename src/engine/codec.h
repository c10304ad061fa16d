#ifndef MOPE_ENGINE_CODEC_H_
#define MOPE_ENGINE_CODEC_H_

/// \file codec.h
/// Little-endian binary encoding of the engine's value types.
///
/// One codec, three consumers: the catalog snapshot format
/// (engine/snapshot.h), the storage engine's WAL records
/// (engine/durability.h) and the client/server wire protocol (net/wire.h)
/// serialize `Value`s, `Row`s and `Schema`s through these helpers, so a row
/// laid down in a snapshot, in the log and on the wire is byte-identical.
/// Writers are infallible appends; the reader returns Corruption for every
/// malformed input (truncation, bad tags, out-of-bounds lengths) — it never
/// aborts, because every consumer decodes bytes from untrusted media.
///
/// Rows are read by one row reader, ByteReader::CheckRow: a single pointer
/// walk checks a row's encodings and yields a CheckedRow, which builds the
/// values without checking them again. ReadRow is the two together; the
/// snapshot loader, WAL replay and the range-batch reply decoder all read
/// rows through it, and the reply decoder builds only the rows it keeps.

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "common/coding.h"
#include "common/status.h"
#include "engine/table.h"

namespace mope::engine {

// --- Writers (append to `out`) --------------------------------------------

inline void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  StoreU32(buf, v);
  out->append(buf, 4);
}
inline void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  StoreU64(buf, v);
  out->append(buf, 8);
}

/// u64 length prefix + raw bytes.
void PutString(std::string* out, const std::string& s);

/// 1-byte type tag (== ValueType) + payload: u64 for ints, IEEE-754 bits for
/// doubles, length-prefixed bytes for strings.
void PutValue(std::string* out, const Value& v);

/// The number of bytes PutValue appends for `v`.
inline size_t EncodedSize(const Value& v) {
  const auto* s = std::get_if<std::string>(&v);
  return 9 + (s != nullptr ? s->size() : 0);
}

/// Writes PutValue's encoding of `v` at `p`, which must have
/// EncodedSize(v) bytes of room, and returns the end of what it wrote.
/// Writers that size a whole record first (a reply row) use this to fill it
/// with one buffer resize.
inline char* WriteValue(char* p, const Value& v) {
  // Value's alternatives are declared in ValueType order: the index is the
  // tag.
  *p = static_cast<char>(v.index());
  if (const auto* s = std::get_if<std::string>(&v)) {
    StoreU64(p + 1, s->size());
    std::memcpy(p + 9, s->data(), s->size());
    return p + 9 + s->size();
  }
  uint64_t bits;
  if (const auto* i = std::get_if<int64_t>(&v)) {
    bits = static_cast<uint64_t>(*i);
  } else {
    std::memcpy(&bits, &std::get<double>(v), 8);
  }
  StoreU64(p + 1, bits);
  return p + 9;
}

/// The most columns ReadSchema accepts.
inline constexpr uint64_t kMaxColumns = 4096;

/// Per column: name, 1-byte type tag (== ValueType). The snapshot/WAL
/// schema and the wire's schema reply differ only in the count in front.
void PutColumns(std::string* out, const Schema& schema);

/// u64 column count, then PutColumns.
void PutSchema(std::string* out, const Schema& schema);

// --- Reader ---------------------------------------------------------------

/// A row's PutValue encodings after ByteReader::CheckRow walked and checked
/// them. Only the reader makes one, so Build reads the bytes without
/// checking them again; it views the reader's buffer, which must outlive it.
class CheckedRow {
 public:
  /// The row's values, with one reservation.
  Row Build() const;

  /// The int at the column CheckRow was asked to locate; nullopt when that
  /// column holds another type, or when none was asked for.
  std::optional<int64_t> LocatedInt() const {
    if (located_ == nullptr ||
        *located_ != static_cast<char>(ValueType::kInt)) {
      return std::nullopt;
    }
    return static_cast<int64_t>(LoadU64(located_ + 1));
  }

 private:
  friend class ByteReader;
  CheckedRow(const char* begin, uint64_t count, const char* located)
      : begin_(begin), count_(count), located_(located) {}

  /// Builds the checked encoding at `*p` and steps past it.
  static Value BuildValue(const char** p);

  const char* begin_;
  uint64_t count_;
  const char* located_;  ///< the located column's encoding, or null
};

/// Sequential decoder over a byte buffer. Every accessor bounds-checks and
/// returns Corruption on truncated or malformed input; `context` names the
/// medium ("snapshot", "wire frame") in error messages.
class ByteReader {
 public:
  /// CheckRow's `locate` when no column is to be located.
  static constexpr uint64_t kNoColumn = ~uint64_t{0};

  explicit ByteReader(std::string_view bytes, const char* context = "buffer")
      : bytes_(bytes), context_(context) {}

  Result<uint8_t> Byte() {
    if (pos_ >= bytes_.size()) return Truncated();
    return static_cast<uint8_t>(bytes_[pos_++]);
  }
  Result<uint32_t> U32() {
    if (bytes_.size() - pos_ < 4) return Truncated();
    const uint32_t v = LoadU32(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    if (bytes_.size() - pos_ < 8) return Truncated();
    const uint64_t v = LoadU64(bytes_.data() + pos_);
    pos_ += 8;
    return v;
  }
  Result<std::string> String();
  /// One PutValue encoding: the row reader with a row of one.
  Result<Value> ReadValue();

  /// The row reader. One pointer walk checks `count` PutValue encodings —
  /// each tag is a ValueType, its 8 bytes are present, a string's length
  /// fits in what remains — and consumes them. When `locate` < count, the
  /// result's LocatedInt reads that column. Any malformed byte is
  /// Corruption, and nothing is allocated however large `count` claims to
  /// be: a row's capacity is reserved only by Build, after the walk.
  Result<CheckedRow> CheckRow(uint64_t count, uint64_t locate = kNoColumn);
  /// CheckRow, then Build.
  Result<Row> ReadRow(uint64_t count) {
    MOPE_ASSIGN_OR_RETURN(const CheckedRow row, CheckRow(count));
    return row.Build();
  }

  /// `count` PutColumns entries of known types and distinct names; the
  /// caller bounds `count`.
  Result<Schema> ReadColumns(uint64_t count);
  /// A PutSchema encoding with 1 to kMaxColumns columns (see ReadColumns).
  Result<Schema> ReadSchema();

  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  Status Truncated() const {
    return Status::Corruption(std::string(context_) + " truncated");
  }
  Status UnknownTag() const;
  Status StringOutOfBounds() const;

  std::string_view bytes_;
  size_t pos_ = 0;
  const char* context_;
};

}  // namespace mope::engine

#endif  // MOPE_ENGINE_CODEC_H_
