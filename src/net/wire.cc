#include "net/wire.h"

#include <algorithm>
#include <optional>

#include "common/coding.h"
#include "common/crc32.h"
#include "engine/codec.h"

namespace mope::net {

using engine::ByteReader;
using engine::PutString;
using engine::PutU32;
using engine::PutU64;
using engine::PutValue;

namespace {

/// Sanity bound on collection counts so a 16-byte frame can't make the
/// decoder reserve gigabytes before the (bounded) payload runs out.
constexpr uint64_t kMaxRangesPerBatch = 1u << 20;

/// A reply row's fixed part: u64 row id + u32 value count.
constexpr size_t kReplyRowHeaderBytes = 12;

Result<ModularInterval> ReadInterval(ByteReader* reader) {
  MOPE_ASSIGN_OR_RETURN(uint64_t start, reader->U64());
  MOPE_ASSIGN_OR_RETURN(uint64_t length, reader->U64());
  MOPE_ASSIGN_OR_RETURN(uint64_t domain, reader->U64());
  // Validate before constructing: ModularInterval's constructor MOPE_CHECKs
  // its preconditions, and a hostile frame must never abort the server.
  if (domain == 0 || start >= domain || length == 0 || length > domain) {
    return Status::Corruption("wire frame carries an invalid interval");
  }
  return ModularInterval(start, length, domain);
}

size_t TraceIdBytes(uint64_t trace_id) {
  return trace_id != 0 ? kTraceIdBytes : 0;
}

/// The fixed header's fields, checked.
struct Header {
  uint8_t type = 0;
  uint8_t flags = 0;
  uint32_t length = 0;
  uint32_t crc = 0;
};

/// Checks the kFrameHeaderBytes at `p`: magic, version, flags, reserved
/// byte and payload length. Afterwards `flags` alone says which extensions
/// follow.
Result<Header> ParseHeader(const char* p) {
  if (LoadU32(p) != kWireMagic) {
    return Status::Corruption("bad wire magic");
  }
  const uint8_t version = static_cast<uint8_t>(p[4]);
  if (version == 0 || version > kWireVersion) {
    return Status::Corruption("unsupported wire protocol version " +
                              std::to_string(version));
  }
  Header header;
  header.type = static_cast<uint8_t>(p[5]);
  header.flags = static_cast<uint8_t>(p[6]);
  // Version 1 predates the flags byte: both bytes are reserved-zero there.
  // In version 2, an unknown flag bit would change the framing underneath
  // us, so it is Corruption, not something to ignore.
  constexpr uint8_t kKnownFlags = kFrameFlagHasTraceId | kFrameFlagHasProfile;
  if (version == 1 ? header.flags != 0 : (header.flags & ~kKnownFlags) != 0) {
    return Status::Corruption(version == 1
                                  ? "nonzero reserved bytes in frame header"
                                  : "unknown frame flags");
  }
  if (p[7] != 0) {
    return Status::Corruption("nonzero reserved bytes in frame header");
  }
  header.length = LoadU32(p + 8);
  if (header.length > kMaxPayloadBytes) {
    return Status::Corruption("oversized frame payload (" +
                              std::to_string(header.length) + " bytes)");
  }
  header.crc = LoadU32(p + 12);
  return header;
}

Result<uint32_t> ProfileLength(const char* p) {
  const uint32_t length = LoadU32(p);
  if (length > kMaxPayloadBytes) {
    return Status::Corruption("oversized profile extension (" +
                              std::to_string(length) + " bytes)");
  }
  return length;
}

}  // namespace

void BeginFrame(std::string* out, uint64_t trace_id) {
  out->assign(kFrameHeaderBytes + TraceIdBytes(trace_id), '\0');
}

void FinishFrame(std::string* out, MessageType type, uint64_t trace_id,
                 bool has_profile, std::string_view profile) {
  MOPE_CHECK(profile.size() <= kMaxPayloadBytes, "frame profile too large");
  size_t payload_at = kFrameHeaderBytes + TraceIdBytes(trace_id);
  if (has_profile) {
    std::string section;
    section.reserve(kProfileLengthBytes + profile.size());
    engine::PutU32(&section, static_cast<uint32_t>(profile.size()));
    section.append(profile);
    out->insert(payload_at, section);
    payload_at += section.size();
  }
  const std::string_view payload = std::string_view(*out).substr(payload_at);
  MOPE_CHECK(payload.size() <= kMaxPayloadBytes, "frame payload too large");
  // Extension-free frames stay version 1, byte-identical to what older
  // builds emit; only an actual trace id or profile pays for version 2.
  const uint8_t flags =
      static_cast<uint8_t>((trace_id != 0 ? kFrameFlagHasTraceId : 0) |
                           (has_profile ? kFrameFlagHasProfile : 0));
  char* p = out->data();
  StoreU32(p, kWireMagic);
  p[4] = static_cast<char>(flags != 0 ? kWireVersion : 1);
  p[5] = static_cast<char>(type);
  p[6] = static_cast<char>(flags);
  p[7] = 0;  // reserved
  StoreU32(p + 8, static_cast<uint32_t>(payload.size()));
  StoreU32(p + 12, Crc32(payload));
  if (trace_id != 0) StoreU64(p + kFrameHeaderBytes, trace_id);
}

std::string EncodeFrame(MessageType type, std::string payload,
                        uint64_t trace_id, bool has_profile,
                        std::string_view profile) {
  std::string out;
  out.reserve(kFrameHeaderBytes + TraceIdBytes(trace_id) +
              (has_profile ? kProfileLengthBytes + profile.size() : 0) +
              payload.size());
  BeginFrame(&out, trace_id);
  out.append(payload);
  FinishFrame(&out, type, trace_id, has_profile, profile);
  return out;
}

Result<FrameView> ParseFrame(std::string_view bytes, size_t* consumed) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Status::Unavailable("incomplete frame header");
  }
  MOPE_ASSIGN_OR_RETURN(const Header header, ParseHeader(bytes.data()));
  FrameView frame;
  frame.type = header.type;
  // Extensions sit between the header and the payload in flag-bit order;
  // the profile one is length-prefixed, so framing is discovered in stages.
  size_t offset = kFrameHeaderBytes;
  if ((header.flags & kFrameFlagHasTraceId) != 0) {
    if (bytes.size() < offset + kTraceIdBytes) {
      return Status::Unavailable("incomplete frame payload");
    }
    frame.trace_id = LoadU64(bytes.data() + offset);
    offset += kTraceIdBytes;
  }
  if ((header.flags & kFrameFlagHasProfile) != 0) {
    frame.has_profile = true;
    if (bytes.size() < offset + kProfileLengthBytes) {
      return Status::Unavailable("incomplete frame payload");
    }
    MOPE_ASSIGN_OR_RETURN(const uint32_t profile_len,
                          ProfileLength(bytes.data() + offset));
    offset += kProfileLengthBytes;
    if (bytes.size() - offset < profile_len) {
      return Status::Unavailable("incomplete frame payload");
    }
    frame.profile = bytes.substr(offset, profile_len);
    offset += profile_len;
  }
  if (bytes.size() - offset < header.length) {
    return Status::Unavailable("incomplete frame payload");
  }
  frame.payload = bytes.substr(offset, header.length);
  if (Crc32(frame.payload) != header.crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  if (consumed != nullptr) *consumed = offset + header.length;
  return frame;
}

Result<Frame> DecodeFrame(std::string_view bytes, size_t* consumed) {
  MOPE_ASSIGN_OR_RETURN(const FrameView view, ParseFrame(bytes, consumed));
  return Frame{view.type, view.trace_id, view.has_profile,
               std::string(view.profile), std::string(view.payload)};
}

namespace {

/// The first read of a frame's remainder asks for at most this many bytes.
constexpr size_t kMinReadChunk = 64 << 10;

/// Reads exactly `n` more bytes onto the end of `out`, straight into its
/// buffer. The buffer grows with the bytes that arrive (at most doubling),
/// not with the length the peer claims, so a 16-byte header cannot make the
/// reader touch 64 MiB. `at_boundary` distinguishes a clean EOF before any
/// header byte (peer hung up between requests) from a stream cut mid-frame.
Status ReadExact(Transport* transport, size_t n, std::string* out,
                 bool at_boundary) {
  const size_t begin = out->size();
  const size_t end = begin + n;
  while (out->size() < end) {
    const size_t at = out->size();
    out->resize(std::min(end, at + std::max(at - begin, kMinReadChunk)));
    MOPE_ASSIGN_OR_RETURN(const size_t chunk,
                          transport->Read(out->data() + at, out->size() - at));
    out->resize(at + chunk);
    if (chunk == 0) {
      return (at_boundary && at == begin)
                 ? Status::Unavailable("connection closed")
                 : Status::Unavailable("connection closed mid-frame");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFrameBytes(Transport* transport) {
  std::string raw;
  MOPE_RETURN_NOT_OK(
      ReadExact(transport, kFrameHeaderBytes, &raw, /*at_boundary=*/true));
  MOPE_ASSIGN_OR_RETURN(const Header header, ParseHeader(raw.data()));
  // The flags say how many extension bytes precede the payload; the
  // profile extension is length-prefixed, so its prefix is read first.
  const size_t trace_ext =
      (header.flags & kFrameFlagHasTraceId) != 0 ? kTraceIdBytes : 0;
  const bool has_profile = (header.flags & kFrameFlagHasProfile) != 0;
  const size_t fixed_ext =
      trace_ext + (has_profile ? kProfileLengthBytes : 0);
  raw.reserve(kFrameHeaderBytes + fixed_ext + header.length);
  MOPE_RETURN_NOT_OK(
      ReadExact(transport, fixed_ext, &raw, /*at_boundary=*/false));
  uint32_t profile_len = 0;
  if (has_profile) {
    MOPE_ASSIGN_OR_RETURN(
        profile_len, ProfileLength(raw.data() + kFrameHeaderBytes + trace_ext));
  }
  MOPE_RETURN_NOT_OK(ReadExact(transport, size_t{profile_len} + header.length,
                               &raw, /*at_boundary=*/false));
  return raw;
}

Result<Frame> ReadFrame(Transport* transport) {
  MOPE_ASSIGN_OR_RETURN(std::string raw, ReadFrameBytes(transport));
  return DecodeFrame(raw, nullptr);
}

Status WriteFrame(Transport* transport, MessageType type, std::string payload,
                  uint64_t trace_id, bool has_profile,
                  std::string_view profile) {
  // Callers hand WriteFrame unbounded application data (e.g. a huge range
  // batch); overflow must come back as a Status, not trip FinishFrame's
  // precondition check.
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "message too large for one frame (" + std::to_string(payload.size()) +
        " > " + std::to_string(kMaxPayloadBytes) + " bytes)");
  }
  if (profile.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "profile too large for one frame (" + std::to_string(profile.size()) +
        " > " + std::to_string(kMaxPayloadBytes) + " bytes)");
  }
  const std::string frame =
      EncodeFrame(type, std::move(payload), trace_id, has_profile, profile);
  return transport->Write(frame.data(), frame.size());
}

// --- Message bodies -------------------------------------------------------

std::string EncodeRangeBatchRequest(const RangeBatchRequest& request) {
  std::string out;
  PutString(&out, request.table);
  PutString(&out, request.column);
  PutU32(&out, static_cast<uint32_t>(request.ranges.size()));
  for (const ModularInterval& range : request.ranges) {
    PutU64(&out, range.start());
    PutU64(&out, range.length());
    PutU64(&out, range.domain());
  }
  return out;
}

Result<RangeBatchRequest> DecodeRangeBatchRequest(std::string_view payload) {
  ByteReader reader(payload, "wire frame");
  RangeBatchRequest request;
  MOPE_ASSIGN_OR_RETURN(request.table, reader.String());
  MOPE_ASSIGN_OR_RETURN(request.column, reader.String());
  MOPE_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  if (count > kMaxRangesPerBatch) {
    return Status::Corruption("implausible range count in batch request");
  }
  request.ranges.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MOPE_ASSIGN_OR_RETURN(ModularInterval range, ReadInterval(&reader));
    request.ranges.push_back(range);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after batch request");
  }
  return request;
}

void PutReplyRow(std::string* out, engine::RowId rid, const engine::Row& row) {
  size_t size = kReplyRowHeaderBytes;
  for (const engine::Value& v : row) size += engine::EncodedSize(v);
  const size_t at = out->size();
  out->resize(at + size);
  char* p = out->data() + at;
  StoreU64(p, rid);
  StoreU32(p + 8, static_cast<uint32_t>(row.size()));
  p += kReplyRowHeaderBytes;
  for (const engine::Value& v : row) p = engine::WriteValue(p, v);
}

std::string EncodeRangeBatchReply(const RowsWithIds& rows) {
  std::string out;
  PutU64(&out, rows.size());
  for (const auto& [rid, row] : rows) PutReplyRow(&out, rid, row);
  return out;
}

namespace {

/// DecodeRangeBatchReply, except that on an error `*rows` may hold some of
/// the reply's rows.
Result<uint64_t> DecodeReplyRows(std::string_view payload,
                                 const RowFilter* filter, RowsWithIds* rows) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(const uint64_t count, reader.U64());
  // Each row costs at least kReplyRowHeaderBytes on the wire; a count
  // beyond that bound cannot be satisfied by the remaining payload.
  if (count > reader.remaining() / kReplyRowHeaderBytes) {
    return Status::Corruption("implausible row count in batch reply");
  }
  if (filter == nullptr) rows->reserve(rows->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    MOPE_ASSIGN_OR_RETURN(const uint64_t rid, reader.U64());
    MOPE_ASSIGN_OR_RETURN(const uint32_t num_values, reader.U32());
    if (num_values > engine::kMaxColumns) {
      return Status::Corruption("implausible column count in batch reply");
    }
    if (filter == nullptr) {
      MOPE_ASSIGN_OR_RETURN(engine::Row row, reader.ReadRow(num_values));
      rows->emplace_back(rid, std::move(row));
      continue;
    }
    if (filter->key_column >= num_values) {
      return Status::Corruption("batch reply row lacks the key column");
    }
    // The row reader's walk checks every byte and finds the key; only a
    // kept row is built.
    MOPE_ASSIGN_OR_RETURN(const engine::CheckedRow row,
                          reader.CheckRow(num_values, filter->key_column));
    const std::optional<int64_t> key = row.LocatedInt();
    if (!key.has_value()) {
      return Status::Corruption("non-int key column in batch reply");
    }
    if (filter->keep.Contains(static_cast<uint64_t>(*key))) {
      rows->emplace_back(rid, row.Build());
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after batch reply");
  }
  return count;
}

}  // namespace

Result<uint64_t> DecodeRangeBatchReply(std::string_view payload,
                                       const RowFilter* filter,
                                       RowsWithIds* rows) {
  const size_t before = rows->size();
  Result<uint64_t> count = DecodeReplyRows(payload, filter, rows);
  if (!count.ok()) rows->erase(rows->begin() + before, rows->end());
  return count;
}

Result<RowsWithIds> DecodeRangeBatchReply(std::string_view payload) {
  RowsWithIds rows;
  MOPE_RETURN_NOT_OK(
      DecodeRangeBatchReply(payload, nullptr, &rows).status());
  return rows;
}

std::string EncodeCountBatchReply(uint64_t count) {
  std::string out;
  PutU64(&out, count);
  return out;
}

Result<uint64_t> DecodeCountBatchReply(std::string_view payload) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after count reply");
  }
  return count;
}

std::string EncodeSchemaRequest(const std::string& table) {
  std::string out;
  PutString(&out, table);
  return out;
}

Result<std::string> DecodeSchemaRequest(std::string_view payload) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(std::string table, reader.String());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after schema request");
  }
  return table;
}

std::string EncodeSchemaReply(const engine::Schema& schema) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(schema.num_columns()));
  engine::PutColumns(&out, schema);
  return out;
}

Result<engine::Schema> DecodeSchemaReply(std::string_view payload) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  if (count > engine::kMaxColumns) {
    return Status::Corruption("implausible column count in schema reply");
  }
  // The shared decoder rejects unknown types and repeated names, which the
  // Schema constructor would abort on: a hostile server costs a Corruption.
  MOPE_ASSIGN_OR_RETURN(engine::Schema schema, reader.ReadColumns(count));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after schema reply");
  }
  return schema;
}

std::string EncodeStatsReply(const StatsReply& stats) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(stats.size()));
  for (const auto& [name, value] : stats) {
    PutString(&out, name);
    PutU64(&out, value);
  }
  return out;
}

Result<StatsReply> DecodeStatsReply(std::string_view payload) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  // Each entry costs at least 12 bytes (4-byte name length + 8-byte value);
  // a larger count cannot be satisfied by the remaining payload.
  if (count > reader.remaining() / 12) {
    return Status::Corruption("implausible entry count in stats reply");
  }
  StatsReply stats;
  stats.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::pair<std::string, uint64_t> entry;
    MOPE_ASSIGN_OR_RETURN(entry.first, reader.String());
    MOPE_ASSIGN_OR_RETURN(entry.second, reader.U64());
    stats.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after stats reply");
  }
  return stats;
}

std::string EncodeStatusReply(const Status& status) {
  MOPE_CHECK(!status.ok(), "status reply must carry an error");
  std::string out;
  out.push_back(static_cast<char>(status.code()));
  PutString(&out, status.message());
  return out;
}

Status DecodeStatusReply(std::string_view payload, Status* out) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint8_t code, reader.Byte());
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("invalid status code in status reply");
  }
  MOPE_ASSIGN_OR_RETURN(std::string message, reader.String());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after status reply");
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

}  // namespace mope::net
