#ifndef MOPE_NET_DISPATCHER_H_
#define MOPE_NET_DISPATCHER_H_

/// \file dispatcher.h
/// Bridges decoded wire frames to an engine::DbServer.
///
/// One dispatcher is shared by every session of a server daemon. It owns the
/// mutex that serializes engine access (DbServer is single-threaded by
/// design — the paper's server is one unmodified DBMS) and the wire-level
/// byte accounting folded into ServerStats. Application errors (unknown
/// table, bad column, unknown message type) are *answers*, encoded as
/// kStatusReply frames; only framing violations — a stream we can no longer
/// trust — are returned as errors, upon which the session closes.
///
/// Observability: requests carrying a version-2 trace id get that id echoed
/// on their reply frame, so a client's span tree and the server's accounting
/// correlate. Every request runs under the dispatcher's own trace
/// activation: a server-side obs::Trace, adopting the frame's trace id, when
/// something will read it (a profile the client asked for, the sampled query
/// log, slow-query mode), and no trace otherwise. The server's registry
/// counters credit that trace, so a profiled reply carries exactly what the
/// request cost, and server work never credits a client trace that happens
/// to be active on the same thread (the in-process wire pumps the
/// dispatcher on the client's thread). Per-request dispatch latency
/// (decode + engine + encode) lands in the server registry's
/// `server.dispatch_ns` histogram, and a kStatsRequest frame is answered
/// with the full registry snapshot — the live stats endpoint `mope_serverd`
/// exposes.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/server.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "storage/env.h"

namespace mope::net {

struct DispatcherOptions {
  /// Caps the encoded reply body: a query whose result would overflow one
  /// frame is *answered* with kStatusReply(InvalidArgument) — never an
  /// abort, never a dropped session. Tests lower it to exercise the
  /// overflow path cheaply.
  size_t max_reply_payload_bytes = kMaxPayloadBytes;
  /// Times per-request dispatch latency (nullptr = SystemClock; tests
  /// inject a ManualClock for deterministic histograms).
  obs::Clock* clock = nullptr;
  /// Slow-query accounting: a request whose dispatch takes at least this
  /// long gets a server-side trace, a structured `event=slow_query` log
  /// line with a per-span time breakdown, and (when `trace_env` is set and
  /// `slow_query_trace_path` non-empty) a Chrome-trace export written
  /// atomically to that path. The server-side trace adopts the request
  /// frame's wire trace id, so the log line, the export, and the client's
  /// own span tree all correlate. 0 disables.
  uint64_t slow_query_threshold_ns = 0;
  std::string slow_query_trace_path;
  storage::Env* trace_env = nullptr;
  /// Checkpoint the attached storage after every N data-bearing requests
  /// (periodic durability without waiting for shutdown; the dispatch mutex
  /// provides the writer quiescence CheckpointStorage requires). 0 never
  /// checkpoints from the dispatcher. A slow-query trace of a request that
  /// triggered one shows exactly where the WAL/checkpoint time went. Each
  /// checkpoint rewrites the whole catalog image: O(rows).
  uint64_t checkpoint_every = 0;
  /// Sampled query log: every Nth data-bearing request (range or count
  /// batch) runs under a server-side trace and is emitted as a structured
  /// `event=query` log line carrying that trace's counters, through the
  /// default logger, which applies no rate limit unless one is set (no
  /// caller outside the tests sets one). The reply is unchanged: it carries
  /// a profile only when its request asked for one. 0 disables.
  uint64_t query_log_sample = 0;
};

class WireDispatcher {
 public:
  /// `server` must outlive the dispatcher.
  explicit WireDispatcher(engine::DbServer* server,
                          DispatcherOptions options = {});

  WireDispatcher(const WireDispatcher&) = delete;
  WireDispatcher& operator=(const WireDispatcher&) = delete;

  /// Handles the complete frame at the front of `bytes` and returns the
  /// encoded reply frame; `*consumed` is set to the request frame's size.
  /// The reply is written into `reuse`'s buffer: a session that hands each
  /// reply back once it is sent keeps one buffer for its whole life, at the
  /// size of its largest reply, and allocates nothing per reply. (Fresh
  /// buffers are the trap: glibc hands a buffer of a megabyte or more back
  /// to the kernel when it is freed, so every reply would fault its pages
  /// in again.) Every answer goes into that buffer, a status frame too: a
  /// range batch whose reply would exceed the cap is refused before any row
  /// is copied, so the buffer never grows past the largest reply sent. On
  /// an error `reuse` is gone.
  /// Thread-safe: the whole request (decode, engine call, encode, stats) runs
  /// under the dispatch mutex.
  Result<std::string> HandleFrameBytes(std::string_view bytes,
                                       size_t* consumed,
                                       std::string reuse = {});

  /// Requests answered so far (including ones answered with a StatusReply).
  uint64_t frames_served() const { return frames_served_->Value(); }

 private:
  /// `profile` is the request's trace when the client asked for a profile
  /// of a data-bearing request, else nullptr. The reply then carries the
  /// trace's counters as they stand after the engine call, plus its id, as
  /// the wire profile extension. Non-data-bearing requests never carry one:
  /// the embedded path does not attribute them either.
  /// Writes the reply frame into `*reply`, keeping its capacity.
  Status HandleFrameLocked(const FrameView& frame, const obs::Trace* profile,
                           std::string* reply) MOPE_REQUIRES(mutex_);
  /// Writes the reply frame to a range batch into `*reply`: the sweep lists
  /// the row ids into `row_ids_`, their stored lengths size the frame, and
  /// each row is its header plus one copy of its stored bytes; a failed
  /// sweep or an over-cap result is a kStatusReply frame, written before
  /// any row is copied.
  void RangeBatchReplyLocked(const RangeBatchRequest& request,
                             uint64_t trace_id, const obs::Trace* profile,
                             std::string* reply) MOPE_REQUIRES(mutex_);
  /// Catalog lookup for a schema request (split out so the capability
  /// analysis sees the engine access inside the dispatch critical section).
  Result<engine::Schema> LookupSchemaLocked(const std::string& table) const
      MOPE_REQUIRES(mutex_);
  /// Periodic-checkpoint policy; called after every data-bearing request.
  void MaybeCheckpointLocked(const FrameView& frame) MOPE_REQUIRES(mutex_);
  /// Slow-query aftermath: log line + Chrome-trace export. `trace` is the
  /// (still thread-activated) server-side trace of the request.
  void ReportSlowQuery(const FrameView& frame, uint64_t elapsed_ns,
                       const obs::Trace& trace);
  /// Emits the sampled `event=query` structured log line from the request's
  /// server-side trace.
  void EmitQueryLog(const FrameView& frame, uint64_t elapsed_ns,
                    const obs::Trace& trace);

  /// Serializes engine access: DbServer is single-threaded by design (the
  /// paper's server is one unmodified DBMS), so the pointee is guarded even
  /// though the pointer itself is const after construction.
  mutable Mutex mutex_{lock_rank::kDispatcher};
  engine::DbServer* server_ MOPE_PT_GUARDED_BY(mutex_);
  DispatcherOptions options_;
  obs::Clock* clock_;
  uint64_t frames_since_checkpoint_ MOPE_GUARDED_BY(mutex_) = 0;
  /// The current range batch's row ids. Kept across requests at the size of
  /// the largest batch (8 bytes a row), so a reply allocates no id list.
  std::vector<engine::RowId> row_ids_ MOPE_GUARDED_BY(mutex_);
  // Handles into the server's registry (so the stats endpoint serves them).
  // Atomic targets: safe to bump without the dispatch mutex.
  obs::Counter* frames_served_;
  obs::Counter* slow_queries_;
  obs::ExpHistogram* dispatch_ns_;
  // Request totals by kind (the /statusz "queries" section).
  obs::Counter* requests_range_batch_;
  obs::Counter* requests_count_batch_;
  obs::Counter* requests_schema_;
  obs::Counter* requests_stats_;
  /// Data-bearing requests seen while query-log sampling is on (every Nth
  /// one is emitted). Atomic: bumped outside the dispatch mutex.
  std::atomic<uint64_t> query_seq_{0};
};

}  // namespace mope::net

#endif  // MOPE_NET_DISPATCHER_H_
