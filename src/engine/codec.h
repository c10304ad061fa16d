#ifndef MOPE_ENGINE_CODEC_H_
#define MOPE_ENGINE_CODEC_H_

/// \file codec.h
/// Little-endian binary encoding of the engine's value types.
///
/// One codec, four places a row lives: engine::Table stores each row as its
/// PutValue encodings, and the catalog snapshot format (engine/snapshot.h),
/// the storage engine's WAL records (engine/durability.h) and the
/// client/server wire protocol (net/wire.h) copy those bytes, so a row is
/// byte-identical in memory, in a snapshot, in the log and on the wire.
/// Writers are infallible appends; the reader returns Corruption for every
/// malformed input (truncation, bad tags, out-of-bounds lengths) — it never
/// aborts, because every consumer decodes bytes from untrusted media.
///
/// Rows are read by one row reader, CheckedRow::Check: one pointer pass
/// checks a row's encodings (a branch-free scan of the tags when the row
/// holds no string, a walk otherwise) and yields a CheckedRow, which builds
/// the values without checking them again, or hands its checked bytes on.
/// ByteReader::CheckRow runs it over a reader's next bytes: the snapshot
/// loader and WAL replay append those bytes to a table without building the
/// row (Table::InsertChecked), and a table decodes its stored rows through
/// it. The range-batch reply decoder (net/wire.h) runs it straight over the
/// payload's bytes and builds only the rows it keeps.

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

/// What the row reader found wrong with a row's bytes.
enum class RowFault : uint8_t {
  kNone,               ///< The row is well formed.
  kTruncated,          ///< An encoding runs past the end of the bytes.
  kStringOutOfBounds,  ///< A string's length runs past the end.
  kUnknownTag,         ///< A tag that names no ValueType.
};

/// The status a fault is: OK for kNone, else Corruption naming the medium
/// as ByteReader's `context` does ("<context> truncated", "unknown value
/// tag in <context>", "<context> string length out of bounds").
Status RowFaultStatus(RowFault fault, const char* context);

/// A row's PutValue encodings after the row reader (Check) checked them.
/// Only the reader makes a non-empty one, so Build reads the bytes without
/// checking them again; it views the checked buffer, which must outlive it.
class CheckedRow {
 public:
  /// An empty row, for Check to fill in.
  CheckedRow() = default;

  /// The row reader, over raw bytes. Checks `count` PutValue encodings from
  /// `begin`, none reaching past `end`: each tag is a ValueType, its 8
  /// bytes are present, a string's length fits in what remains. When
  /// `locate` < count, LocatedInt reads that column. A row with no string
  /// (ints and doubles only, every encoding 9 bytes, which one bound check
  /// covers) has its tags checked by one branch-free scan; any other row
  /// is walked encoding by encoding. On kNone, `*row` is the row and its
  /// bytes() end where the next record starts. Nothing is allocated
  /// however large `count` claims to be.
  static RowFault Check(const char* begin, const char* end, uint64_t count,
                        uint64_t locate, CheckedRow* row) {
    // Every encoding takes at least 9 bytes, so a hostile count fails here,
    // before any tag is read.
    if (count > static_cast<uint64_t>(end - begin) / 9) {
      return RowFault::kTruncated;
    }
    // With no string among them, the encodings are 9 bytes each and all
    // present: OR-ing the tags checks every one against kDouble at once.
    uint8_t tags = 0;
    for (uint64_t c = 0; c < count; ++c) {
      tags |= static_cast<uint8_t>(begin[9 * c]);
    }
    if (tags > static_cast<uint8_t>(ValueType::kDouble)) {
      return Walk(begin, end, count, locate, row);
    }
    *row = CheckedRow(begin, begin + 9 * count, count,
                      locate < count ? begin + 9 * locate : nullptr);
    return RowFault::kNone;
  }

  /// The row's values, with one reservation.
  Row Build() const;
  /// Builds the row into `*out`, reusing its storage: a value that keeps its
  /// type is overwritten in place, so refilling a row of the same width
  /// allocates nothing unless a string outgrows its capacity.
  void BuildInto(Row* out) const;

  /// The int at the column Check was asked to locate; nullopt when that
  /// column holds another type, or when none was asked for.
  std::optional<int64_t> LocatedInt() const {
    if (located_ == nullptr ||
        *located_ != static_cast<char>(ValueType::kInt)) {
      return std::nullopt;
    }
    return static_cast<int64_t>(LoadU64(located_ + 1));
  }
  /// The located column's whole PutValue encoding; empty when none was
  /// asked for.
  std::string_view LocatedValue() const;

  /// The checked bytes: count() PutValue encodings.
  std::string_view bytes() const {
    return std::string_view(begin_, static_cast<size_t>(end_ - begin_));
  }
  uint64_t count() const { return count_; }

  /// The first column whose value's type is not `schema`'s type for it;
  /// nullopt when every value matches. Precondition: count() ==
  /// schema.num_columns().
  std::optional<size_t> FirstTypeMismatch(const Schema& schema) const;

 private:
  friend class ByteReader;
  CheckedRow(const char* begin, const char* end, uint64_t count,
             const char* located)
      : begin_(begin), end_(end), count_(count), located_(located) {}

  /// Check's walk, encoding by encoding, for a row with a string or a bad
  /// tag.
  static RowFault Walk(const char* begin, const char* end, uint64_t count,
                       uint64_t locate, CheckedRow* row);
  /// Builds the checked encoding at `*p` and steps past it.
  static Value BuildValue(const char** p);

  const char* begin_ = nullptr;
  const char* end_ = nullptr;
  uint64_t count_ = 0;
  const char* located_ = nullptr;  ///< the located column's encoding, or null
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

  /// The row reader (CheckedRow::Check) over the next `count` encodings,
  /// which it consumes. When `locate` < count, the result's LocatedInt
  /// reads that column. Any malformed byte is Corruption (RowFaultStatus),
  /// and nothing is allocated however large `count` claims to be: a row's
  /// capacity is reserved only by Build, after the check.
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
    return RowFaultStatus(RowFault::kTruncated, context_);
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  const char* context_;
};

/// CheckRow over a row's stored bytes (Table::row_bytes), which were
/// checked when they were stored: MOPE_CHECKs that they still hold exactly
/// `count` encodings.
CheckedRow CheckStoredRow(std::string_view bytes, uint64_t count,
                          uint64_t locate = ByteReader::kNoColumn);

}  // namespace mope::engine

#endif  // MOPE_ENGINE_CODEC_H_
