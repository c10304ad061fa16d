#include "net/dispatcher.h"

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace_export.h"

namespace mope::net {

namespace {

/// Encodes an application-level outcome: a reply frame on success, a
/// kStatusReply frame on error. Only called with already-validated framing.
/// A reply body over `max_payload` bytes is itself an application-level
/// outcome — EncodeFrame would MOPE_CHECK on it, and a legitimate (or
/// hostile) wide query must cost a StatusReply, not the process.
/// `trace_id` (the request's, possibly 0) is echoed on whichever frame goes
/// back so the client can attribute the reply to its span tree; likewise a
/// captured `profile` rides on both outcomes — a failed query still consumed
/// the resources its probe measured.
template <typename T, typename Encode>
std::string ReplyOrStatus(const Result<T>& result, MessageType reply_type,
                          Encode&& encode, size_t max_payload,
                          uint64_t trace_id, bool has_profile = false,
                          std::string_view profile = {}) {
  if (!result.ok()) {
    return EncodeFrame(MessageType::kStatusReply,
                       EncodeStatusReply(result.status()), trace_id,
                       has_profile, profile);
  }
  std::string body = encode(result.value());
  if (body.size() > max_payload) {
    return EncodeFrame(
        MessageType::kStatusReply,
        EncodeStatusReply(Status::InvalidArgument(
            "result too large for one frame (" +
            std::to_string(body.size()) + " > " +
            std::to_string(max_payload) +
            " bytes); narrow the ranges or lower the batch size")),
        trace_id, has_profile, profile);
  }
  return EncodeFrame(reply_type, std::move(body), trace_id, has_profile,
                     profile);
}

/// Fills `*profile_out` with the probe's deltas plus the request's trace id
/// and returns the wire-encoded profile section.
std::string CaptureProfile(const engine::ServerProfileProbe& probe,
                           uint64_t trace_id, StatsReply* profile_out) {
  *profile_out = probe.Delta();
  profile_out->emplace_back("profile.trace_id", trace_id);
  return EncodeStatsReply(*profile_out);
}

/// Marks a completed dispatch in the crash flight recorder and persists the
/// black box if it has new entries. Called outside the dispatch mutex: a
/// kill -9 right after this point leaves a black box whose last event names
/// the final query the server actually finished.
void RecordDispatchDone(uint64_t trace_id) {
  if (obs::FlightRecorder* recorder = obs::FlightRecorder::Installed()) {
    recorder->Record(obs::FlightRecorder::EventKind::kEvent,
                     "server.dispatch.done", trace_id);
    // Best-effort by design: a full disk must not fail queries, and the
    // recorder already logged the write error under its own subsystem.
    (void)recorder->PersistIfDirty();
  }
}

}  // namespace

WireDispatcher::WireDispatcher(engine::DbServer* server,
                               DispatcherOptions options)
    : server_(server),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : obs::SystemClock()),
      frames_served_(
          server->metrics()->GetCounter("net.server.frames_served")),
      slow_queries_(server->metrics()->GetCounter("server.slow_queries")),
      dispatch_ns_(server->metrics()->GetHistogram("server.dispatch_ns")),
      requests_range_batch_(
          server->metrics()->GetCounter("server.requests.range_batch")),
      requests_count_batch_(
          server->metrics()->GetCounter("server.requests.count_batch")),
      requests_schema_(
          server->metrics()->GetCounter("server.requests.schema")),
      requests_stats_(server->metrics()->GetCounter("server.requests.stats")) {
}

WireDispatcher::WireDispatcher(engine::DbServer* server,
                               size_t max_reply_payload_bytes,
                               obs::Clock* clock)
    : WireDispatcher(server, [&] {
        DispatcherOptions options;
        options.max_reply_payload_bytes = max_reply_payload_bytes;
        options.clock = clock;
        return options;
      }()) {}

Result<std::string> WireDispatcher::HandleFrameBytes(std::string_view bytes,
                                                     size_t* consumed) {
  size_t frame_size = 0;
  MOPE_ASSIGN_OR_RETURN(Frame frame, DecodeFrame(bytes, &frame_size));
  if (consumed != nullptr) *consumed = frame_size;

  // Query-log sampling: every Nth data-bearing request is profiled as if
  // the client had asked for it, and emitted as an `event=query` line after
  // dispatch. The decision is made pre-dispatch so the probe brackets the
  // engine call exactly like a client-requested profile does.
  const bool data_bearing =
      frame.type == static_cast<uint8_t>(MessageType::kRangeBatchRequest) ||
      frame.type == static_cast<uint8_t>(MessageType::kCountBatchRequest);
  const bool sampled =
      data_bearing && options_.query_log_sample > 0 &&
      query_seq_.fetch_add(1, std::memory_order_relaxed) %
              options_.query_log_sample ==
          0;
  const bool want_profile = frame.has_profile || sampled;
  StatsReply profile;

  if (options_.slow_query_threshold_ns == 0) {
    const uint64_t start_ns = clock_->NowNanos();
    std::string reply;
    {
      const MutexLock lock(&mutex_);
      MOPE_ASSIGN_OR_RETURN(reply,
                            HandleFrameLocked(frame, want_profile, &profile));
      server_->AddTransferBytes(frame_size, reply.size());
    }
    frames_served_->Increment();
    const uint64_t elapsed_ns = clock_->NowNanos() - start_ns;
    dispatch_ns_->Observe(elapsed_ns);
    if (sampled) EmitQueryLog(frame, elapsed_ns, profile);
    RecordDispatchDone(frame.trace_id);
    return reply;
  }

  // Slow-query mode: give the request a server-side trace so instrumented
  // layers underneath (storage WAL, checkpoint) attach spans.
  // Adopting the wire trace id (when the client sent one) is what lets the
  // operator join this trace against the client's own span tree.
  obs::Trace trace("server.dispatch", clock_, frame.trace_id);
  const obs::ScopedTraceActivation activation(&trace);
  const uint64_t start_ns = clock_->NowNanos();
  std::string reply;
  {
    const obs::ScopedSpan span("server.handle");
    const MutexLock lock(&mutex_);
    MOPE_ASSIGN_OR_RETURN(reply,
                          HandleFrameLocked(frame, want_profile, &profile));
    server_->AddTransferBytes(frame_size, reply.size());
  }
  frames_served_->Increment();
  const uint64_t elapsed_ns = clock_->NowNanos() - start_ns;
  dispatch_ns_->Observe(elapsed_ns);
  if (elapsed_ns >= options_.slow_query_threshold_ns) {
    ReportSlowQuery(frame, elapsed_ns, trace);
  }
  if (sampled) EmitQueryLog(frame, elapsed_ns, profile);
  // The server-side trace id (== frame.trace_id when the client sent one),
  // so the done-marker joins the span events already in the ring.
  RecordDispatchDone(trace.trace_id());
  return reply;
}

void WireDispatcher::EmitQueryLog(const Frame& frame, uint64_t elapsed_ns,
                                  const StatsReply& profile) {
  // One line per sampled query, full profile inline: grep `event=query` and
  // every resource the server attributed to the request is on the line,
  // joinable against client-side traces via trace_id. Flows through the
  // default logger, so its rate limiter has the final say under load.
  obs::LogEvent event(obs::Logger::Default(), obs::LogLevel::kInfo, "server",
                      "query");
  event.Arg("type", static_cast<uint64_t>(frame.type))
      .Arg("elapsed_ns", elapsed_ns)
      .Arg("trace_id", frame.trace_id);
  for (const auto& [name, value] : profile) {
    event.Arg(name.c_str(), value);
  }
}

void WireDispatcher::ReportSlowQuery(const Frame& frame, uint64_t elapsed_ns,
                                     const obs::Trace& trace) {
  slow_queries_->Increment();

  // Aggregate the span tree into a per-name time breakdown: one log line an
  // operator can read without opening the trace viewer.
  std::map<std::string, uint64_t> by_name;
  for (const obs::Span& span : trace.spans()) {
    if (span.end_ns >= span.start_ns) {
      by_name[span.name] += span.end_ns - span.start_ns;
    }
  }
  {
    obs::LogEvent event(obs::Logger::Default(), obs::LogLevel::kWarn,
                        "server", "slow_query");
    event.Arg("type", static_cast<uint64_t>(frame.type))
        .Arg("elapsed_ns", elapsed_ns)
        .Arg("threshold_ns", options_.slow_query_threshold_ns);
    for (const auto& [name, dur_ns] : by_name) {
      event.Arg(("span_ns." + name).c_str(), dur_ns);
    }
  }

  if (options_.trace_env != nullptr &&
      !options_.slow_query_trace_path.empty()) {
    const Status written = options_.trace_env->WriteFileAtomic(
        options_.slow_query_trace_path, obs::ExportChromeTrace(trace));
    if (!written.ok()) {
      MOPE_LOG(kWarn, "server", "slow_query_trace_write_failed")
          .Arg("path", options_.slow_query_trace_path)
          .Arg("error", written.message());
    }
  }
}

void WireDispatcher::MaybeCheckpointLocked(const Frame& frame) {
  if (options_.checkpoint_every == 0 || !server_->has_storage()) return;
  if (++frames_since_checkpoint_ < options_.checkpoint_every) return;
  frames_since_checkpoint_ = 0;
  // Inside the dispatch critical section: exactly the writer quiescence the
  // checkpoint protocol requires. The cost lands in this request's dispatch
  // latency (and its trace, when slow-query mode is on) by design — the
  // periodic-durability tax should be visible, not hidden.
  const obs::ScopedSpan span("server.checkpoint");
  const Status status = server_->CheckpointStorage();
  if (!status.ok()) {
    MOPE_LOG(kError, "server", "checkpoint_failed")
        .Arg("error", status.message());
  } else {
    MOPE_LOG(kDebug, "server", "checkpointed")
        .Arg("after_frames", options_.checkpoint_every)
        .Arg("trace_carried", frame.trace_id != 0);
  }
}

Result<engine::Schema> WireDispatcher::LookupSchemaLocked(
    const std::string& table) const {
  MOPE_ASSIGN_OR_RETURN(
      const engine::Table* tbl,
      static_cast<const engine::DbServer*>(server_)->catalog().GetTable(
          table));
  return tbl->schema();
}

Result<std::string> WireDispatcher::HandleFrameLocked(const Frame& frame,
                                                      bool want_profile,
                                                      StatsReply* profile_out) {
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kRangeBatchRequest: {
      requests_range_batch_->Increment();
      auto request = DecodeRangeBatchRequest(frame.payload);
      if (!request.ok()) return request.status();
      // The probe brackets the engine call only: a periodic checkpoint that
      // happens to fire afterwards is a server policy cost, deliberately
      // excluded from the query's attributed profile (it shows up in the
      // dispatch latency and the slow-query trace instead).
      std::optional<engine::ServerProfileProbe> probe;
      if (want_profile) probe.emplace(server_);
      const Result<RowsWithIds> rows = server_->ExecuteRangeBatchWithIds(
          request->table, request->column, request->ranges);
      std::string encoded_profile;
      if (want_profile) {
        encoded_profile = CaptureProfile(*probe, frame.trace_id, profile_out);
      }
      std::string reply = ReplyOrStatus(
          rows, MessageType::kRangeBatchReply,
          [](const RowsWithIds& r) { return EncodeRangeBatchReply(r); },
          options_.max_reply_payload_bytes, frame.trace_id, want_profile,
          encoded_profile);
      MaybeCheckpointLocked(frame);
      return reply;
    }
    case MessageType::kCountBatchRequest: {
      requests_count_batch_->Increment();
      auto request = DecodeRangeBatchRequest(frame.payload);
      if (!request.ok()) return request.status();
      std::optional<engine::ServerProfileProbe> probe;
      if (want_profile) probe.emplace(server_);
      const Result<uint64_t> count = server_->CountRangeBatch(
          request->table, request->column, request->ranges);
      std::string encoded_profile;
      if (want_profile) {
        encoded_profile = CaptureProfile(*probe, frame.trace_id, profile_out);
      }
      std::string reply = ReplyOrStatus(
          count, MessageType::kCountBatchReply,
          [](uint64_t c) { return EncodeCountBatchReply(c); },
          options_.max_reply_payload_bytes, frame.trace_id, want_profile,
          encoded_profile);
      MaybeCheckpointLocked(frame);
      return reply;
    }
    case MessageType::kSchemaRequest: {
      requests_schema_->Increment();
      auto table = DecodeSchemaRequest(frame.payload);
      if (!table.ok()) return table.status();
      // Named helper rather than an immediately-invoked lambda: the thread
      // safety analysis treats a lambda as a separate function, so guarded
      // accesses inside one would not see the lock held here.
      const Result<engine::Schema> schema = LookupSchemaLocked(*table);
      return ReplyOrStatus(schema, MessageType::kSchemaReply,
                           [](const engine::Schema& s) {
                             return EncodeSchemaReply(s);
                           },
                           options_.max_reply_payload_bytes, frame.trace_id);
    }
    case MessageType::kStatsRequest: {
      requests_stats_->Increment();
      if (!frame.payload.empty()) {
        return Status::Corruption("stats request carries a payload");
      }
      // The snapshot covers everything credited to this server: engine.*
      // counters, wire bytes, and the net.server.* mirrors.
      return ReplyOrStatus(
          Result<StatsReply>(server_->metrics()->Snapshot()),
          MessageType::kStatsReply,
          [](const StatsReply& stats) { return EncodeStatsReply(stats); },
          options_.max_reply_payload_bytes, frame.trace_id);
    }
    case MessageType::kRangeBatchReply:
    case MessageType::kCountBatchReply:
    case MessageType::kSchemaReply:
    case MessageType::kStatsReply:
    case MessageType::kStatusReply:
      // A client sending us reply types is confused but the framing is
      // sound: answer, don't hang up.
      return EncodeFrame(MessageType::kStatusReply,
                         EncodeStatusReply(Status::InvalidArgument(
                             "reply message type in a request frame")),
                         frame.trace_id);
  }
  return EncodeFrame(MessageType::kStatusReply,
                     EncodeStatusReply(Status::InvalidArgument(
                         "unknown message type " +
                         std::to_string(frame.type))),
                     frame.trace_id);
}

}  // namespace mope::net
