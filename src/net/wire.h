#ifndef MOPE_NET_WIRE_H_
#define MOPE_NET_WIRE_H_

/// \file wire.h
/// The MOPE client/server wire protocol.
///
/// Every message travels in one length-prefixed binary frame:
///
///   offset  size  field
///        0     4  magic 0x4D4F5057 ("MOPW", little-endian u32)
///        4     1  protocol version (1 or kWireVersion)
///        5     1  message type
///        6     1  flags (version >= 2; must be zero in version 1)
///        7     1  reserved, must be zero
///        8     4  payload length (little-endian u32, <= kMaxPayloadBytes)
///       12     4  CRC-32 (IEEE) of the payload
///       16     …  extension fields selected by `flags`, then the payload
///
/// Version 2 adds two optional extensions between the header and payload,
/// in flag-bit order and excluded from both the payload length and the CRC:
///
///   kFrameFlagHasTraceId  an 8-byte little-endian trace id
///   kFrameFlagHasProfile  a u32 length followed by that many bytes of
///                         profile (StatsReply-encoded name/u64 pairs).
///                         On a request an empty profile section asks the
///                         server to run the request under a trace that
///                         adopts the frame's trace id; the reply carries
///                         back the counters that trace collected plus a
///                         kProfileTraceIdEntry naming it.
///
/// Frames that use no extension are still emitted as byte-identical
/// version-1 frames, so an old peer interoperates until tracing or
/// profiling is actually used; unknown flag bits are rejected as Corruption
/// rather than silently mis-framed.
///
/// Payloads are encoded with the same value codec as catalog snapshots
/// (engine/codec.h). Request/reply pairs mirror proxy::ServerConnection:
/// ExecuteRangeBatch / FetchRangeBatch, CountRangeBatch, GetSchema,
/// FetchServerStats; any server-side error comes back as a kStatusReply
/// frame carrying the Status code and message.
///
/// The range-batch reply is the bulk of all traffic, so its path copies as
/// little as it can without changing a byte: the server's sweep lists the
/// qualifying row ids, the dispatcher sums their stored lengths (refusing
/// an over-cap reply before it copies anything), sizes the frame once
/// (BeginFrame) and writes each row as its 12-byte header plus one memcpy
/// of the row's stored codec bytes (WriteReplyRow), then the CRC
/// (FinishFrame); each end of a connection keeps one reply buffer for its
/// whole life, so a reply costs no allocation and no page fault once the
/// buffer has held the largest; ParseFrame validates a frame and hands out
/// views of its payload and profile, and the client's decoder checks each
/// row in one raw pointer pass through the codec's row reader
/// (engine::CheckedRow::Check), which finds its key, then builds only the
/// rows a RowFilter keeps. The frame CRC (common/crc32.h), computed once on
/// each side, folds the payload by carry-less multiplication where the host
/// supports it.
///
/// Decoders never trust the peer: magic/version/flags/reserved/length/CRC
/// are all checked before a payload byte is looked at, every payload field
/// is bounds-checked, and a ModularInterval is validated *before*
/// construction (the constructor MOPE_CHECKs, and a hostile frame must not
/// abort the process). Framing violations decode to Corruption; connection
/// loss and deadline expiry to Unavailable (the retryable class).

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/interval.h"
#include "common/status.h"
#include "engine/table.h"
#include "net/transport.h"

namespace mope::net {

inline constexpr uint32_t kWireMagic = 0x4D4F5057;  // "MOPW"
/// Newest protocol version this build speaks. Traceless frames are still
/// emitted as version 1 (see file comment).
inline constexpr uint8_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Flags byte (offset 6) bits understood by this build.
inline constexpr uint8_t kFrameFlagHasTraceId = 0x01;
inline constexpr uint8_t kFrameFlagHasProfile = 0x02;
inline constexpr size_t kTraceIdBytes = 8;
inline constexpr size_t kProfileLengthBytes = 4;
/// The profile entry whose value is the id of the trace the server
/// attributed the request to; a client checks that it is its own.
inline constexpr char kProfileTraceIdEntry[] = "profile.trace_id";
/// Upper bound on a payload; anything larger is rejected before allocation.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

enum class MessageType : uint8_t {
  kRangeBatchRequest = 1,  ///< body: RangeBatchRequest
  kRangeBatchReply = 2,    ///< body: rows with ids
  kCountBatchRequest = 3,  ///< body: RangeBatchRequest (count-only)
  kCountBatchReply = 4,    ///< body: u64 count
  kSchemaRequest = 5,      ///< body: table name
  kSchemaReply = 6,        ///< body: Schema
  kStatusReply = 7,        ///< body: non-OK Status (code + message)
  kStatsRequest = 8,       ///< body: empty; asks for the server's metrics
  kStatsReply = 9,         ///< body: StatsReply (sorted name/value pairs)
};

/// A validated frame whose profile and payload view the bytes it was parsed
/// from; those bytes must outlive it. `type` is the raw on-wire byte:
/// framing layers pass unknown types through so the dispatcher can answer
/// them with a clean Status instead of dropping the connection. `trace_id`
/// is nonzero when the peer stamped the frame with an active query trace
/// (version-2 extension). `has_profile` is true when the frame carried the
/// profile extension — empty on a request (meaning "profile me"), filled
/// with the counters the server credited to the request on a reply.
struct FrameView {
  uint8_t type = 0;
  uint64_t trace_id = 0;
  bool has_profile = false;
  std::string_view profile;  ///< StatsReply-encoded; iff has_profile.
  std::string_view payload;
};

/// A FrameView that owns copies of its profile and payload.
struct Frame {
  uint8_t type = 0;
  uint64_t trace_id = 0;
  bool has_profile = false;
  std::string profile;  ///< StatsReply-encoded; meaningful iff has_profile.
  std::string payload;
};

/// Starts a frame of `payload_size` payload bytes in `*out`, replacing its
/// contents but keeping its capacity, so a frame is sized once: writes the
/// header (all but the CRC) and the extensions, which are the trace id when
/// `trace_id` is nonzero and the profile section when `has_profile`
/// (`profile` is its StatsReply encoding; empty on a request, asking for
/// one). Returns where the payload goes: the caller writes exactly
/// `payload_size` bytes there, then calls FinishFrame. A frame using no
/// extension (zero `trace_id`, `has_profile` false) is a version-1 frame,
/// byte-identical to what older builds emit; any extension selects version
/// 2. Precondition (MOPE_CHECKed): payload and profile each fit in
/// kMaxPayloadBytes. For unbounded or peer-influenced data use WriteFrame
/// (client side) or the dispatcher's reply cap (server side), which
/// surface overflow as a Status instead.
char* BeginFrame(std::string* out, MessageType type, size_t payload_size,
                 uint64_t trace_id = 0, bool has_profile = false,
                 std::string_view profile = {});

/// Completes a frame started by BeginFrame once its payload is written:
/// stores the payload's CRC in the header.
void FinishFrame(std::string* out);

/// Writes one whole frame into `*out`, replacing its contents but keeping
/// its capacity: BeginFrame, a copy of `payload`, FinishFrame.
void EncodeFrameInto(std::string* out, MessageType type,
                     std::string_view payload, uint64_t trace_id = 0,
                     bool has_profile = false, std::string_view profile = {});

/// EncodeFrameInto a new string.
std::string EncodeFrame(MessageType type, std::string_view payload,
                        uint64_t trace_id = 0, bool has_profile = false,
                        std::string_view profile = {});

/// Validates the frame at the front of `bytes` — header, extensions, CRC —
/// and returns views into `bytes`; on success sets `*consumed` (when not
/// null) to the frame's total size. Corruption on any header/CRC violation;
/// Unavailable when `bytes` holds less than one whole frame (more input may
/// still arrive).
Result<FrameView> ParseFrame(std::string_view bytes, size_t* consumed);

/// ParseFrame, then copies the profile and payload into an owning Frame.
Result<Frame> DecodeFrame(std::string_view bytes, size_t* consumed);

/// Reads one whole raw frame (header, extensions, payload) off a transport
/// into `*raw`, replacing its contents but keeping its capacity, so a
/// reader that passes the same buffer for every frame stops allocating once
/// it has held the largest one. The header is validated before any further
/// byte is read, and the buffer grows only with the bytes that arrive,
/// never with the length the header claims. Unavailable on timeout or
/// connection loss; Corruption as in ParseFrame.
Status ReadFrameBytes(Transport* transport, std::string* raw);

/// ReadFrameBytes + DecodeFrame.
Result<Frame> ReadFrame(Transport* transport);

/// Encodes and writes one frame. InvalidArgument (no bytes written) when the
/// payload (or profile section) exceeds kMaxPayloadBytes.
Status WriteFrame(Transport* transport, MessageType type, std::string payload,
                  uint64_t trace_id = 0, bool has_profile = false,
                  std::string_view profile = {});

// --- Message bodies -------------------------------------------------------

/// ExecuteRangeBatch / CountRangeBatch request (they share a body; the frame
/// type selects rows-vs-count).
struct RangeBatchRequest {
  std::string table;
  std::string column;
  std::vector<ModularInterval> ranges;
};

using RowsWithIds = std::vector<std::pair<engine::RowId, engine::Row>>;

std::string EncodeRangeBatchRequest(const RangeBatchRequest& request);
Result<RangeBatchRequest> DecodeRangeBatchRequest(std::string_view payload);

/// A range-batch reply payload is a u64 row count, then per row a u64 row
/// id, a u32 value count and that many PutValue encodings.
inline constexpr size_t kReplyRowHeaderBytes = 12;

/// Writes one reply row at `p`, which must have kReplyRowHeaderBytes +
/// values.size() bytes of room: its 12-byte header, then one copy of
/// `values`, which are already its `num_values` PutValue encodings (a
/// table's stored row bytes). Returns the end of what it wrote. The
/// dispatcher sizes a reply from its rows' stored lengths, then writes
/// each row with this.
inline char* WriteReplyRow(char* p, engine::RowId rid, uint64_t num_values,
                           std::string_view values) {
  StoreU64(p, rid);
  StoreU32(p + 8, static_cast<uint32_t>(num_values));
  std::memcpy(p + kReplyRowHeaderBytes, values.data(), values.size());
  return p + kReplyRowHeaderBytes + values.size();
}

/// Encodes built rows as a range-batch reply payload.
std::string EncodeRangeBatchReply(const RowsWithIds& rows);

/// The proxy's result filter: keep a row iff the int at `key_column` lies
/// in `keep` (a ciphertext interval).
struct RowFilter {
  size_t key_column;
  ModularInterval keep;
};

/// The range-batch reply decoder. One raw pointer pass checks every byte:
/// the row-count bound; per row one bound check for its 12-byte header,
/// its column-count bound, and its values' tags and string lengths
/// (engine::CheckedRow::Check, a branch-free scan of the tags for a row of
/// ints and doubles); then trailing bytes. Any malformed byte, in a row
/// kept or dropped, is Corruption and `*rows` is left as it was. With a
/// `filter`, only the rows it keeps are built and appended to `*rows`, and
/// a row lacking the key column or holding a non-int there is Corruption;
/// without one every row is built. The two share the pass and its checks.
/// Returns the number of rows the reply carried.
Result<uint64_t> DecodeRangeBatchReply(std::string_view payload,
                                       const RowFilter* filter,
                                       RowsWithIds* rows);

/// The same decoder with no filter.
Result<RowsWithIds> DecodeRangeBatchReply(std::string_view payload);

std::string EncodeCountBatchReply(uint64_t count);
Result<uint64_t> DecodeCountBatchReply(std::string_view payload);

std::string EncodeSchemaRequest(const std::string& table);
Result<std::string> DecodeSchemaRequest(std::string_view payload);

std::string EncodeSchemaReply(const engine::Schema& schema);
Result<engine::Schema> DecodeSchemaReply(std::string_view payload);

/// Server metrics snapshot: name/value pairs sorted by name (the order
/// obs::MetricsRegistry::Snapshot produces). Histograms arrive flattened to
/// `<name>.count` / `<name>.sum` / `<name>.le.<bound>` entries.
using StatsReply = std::vector<std::pair<std::string, uint64_t>>;

std::string EncodeStatsReply(const StatsReply& stats);
Result<StatsReply> DecodeStatsReply(std::string_view payload);

/// Precondition: !status.ok() (an OK status reply is meaningless on the wire
/// and is rejected by the decoder).
std::string EncodeStatusReply(const Status& status);

/// Decodes the carried error into `*out`; the return value reports decode
/// failures (out-param rather than Result<Status>, which would be ambiguous).
Status DecodeStatusReply(std::string_view payload, Status* out);

/// True when `status` is a transient transport failure worth retrying.
inline bool IsTransient(const Status& status) {
  return status.IsUnavailable();
}

}  // namespace mope::net

#endif  // MOPE_NET_WIRE_H_
