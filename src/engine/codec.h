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

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "engine/table.h"

namespace mope::engine {

// --- Writers (append to `out`) --------------------------------------------

void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);

/// u64 length prefix + raw bytes.
void PutString(std::string* out, const std::string& s);

/// 1-byte type tag (== ValueType) + payload: u64 for ints, IEEE-754 bits for
/// doubles, length-prefixed bytes for strings.
void PutValue(std::string* out, const Value& v);

/// The most columns ReadSchema accepts.
inline constexpr uint64_t kMaxColumns = 4096;

/// Per column: name, 1-byte type tag (== ValueType). The snapshot/WAL
/// schema and the wire's schema reply differ only in the count in front.
void PutColumns(std::string* out, const Schema& schema);

/// u64 column count, then PutColumns.
void PutSchema(std::string* out, const Schema& schema);

// --- Reader ---------------------------------------------------------------

/// Sequential decoder over a byte buffer. Every accessor bounds-checks and
/// returns Corruption on truncated or malformed input; `context` names the
/// medium ("snapshot", "wire frame") in error messages.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes, const char* context = "buffer")
      : bytes_(bytes), context_(context) {}

  Result<uint8_t> Byte();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<std::string> String();
  Result<Value> ReadValue();
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

  std::string_view bytes_;
  size_t pos_ = 0;
  const char* context_;
};

}  // namespace mope::engine

#endif  // MOPE_ENGINE_CODEC_H_
