#include "net/dispatcher.h"

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "engine/codec.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace_export.h"

namespace mope::net {

namespace {

/// The wire profile section: the trace's counters so far plus its id;
/// empty without a trace.
std::string EncodeProfile(const obs::Trace* trace) {
  if (trace == nullptr) return std::string();
  const std::map<std::string, uint64_t> counters = trace->counters();
  StatsReply entries(counters.begin(), counters.end());
  entries.emplace_back(kProfileTraceIdEntry, trace->trace_id());
  return EncodeStatsReply(entries);
}

/// The kStatusReply frame answering a request with `status`. `trace_id`
/// (the request's, possibly 0) is echoed so the client can attribute the
/// reply to its span tree; a `profile` trace rides along as the profile
/// extension — a failed query still consumed the resources its trace
/// recorded.
std::string StatusFrame(const Status& status, uint64_t trace_id,
                        const obs::Trace* profile) {
  return EncodeFrame(MessageType::kStatusReply, EncodeStatusReply(status),
                     trace_id, profile != nullptr, EncodeProfile(profile));
}

/// A reply body over the dispatcher's cap is an application-level outcome:
/// FinishFrame would MOPE_CHECK on it, and a legitimate (or hostile) wide
/// query must cost a StatusReply, not the process.
Status TooLarge(size_t size, size_t max_payload) {
  return Status::InvalidArgument(
      "result too large for one frame (" + std::to_string(size) + " > " +
      std::to_string(max_payload) +
      " bytes); narrow the ranges or lower the batch size");
}

/// Encodes an application-level outcome: a reply frame on success, a
/// kStatusReply frame on error (see StatusFrame). Only called with
/// already-validated framing.
template <typename T, typename Encode>
std::string ReplyOrStatus(const Result<T>& result, MessageType reply_type,
                          Encode&& encode, size_t max_payload,
                          uint64_t trace_id,
                          const obs::Trace* profile = nullptr) {
  if (!result.ok()) return StatusFrame(result.status(), trace_id, profile);
  std::string body = encode(result.value());
  if (body.size() > max_payload) {
    return StatusFrame(TooLarge(body.size(), max_payload), trace_id, profile);
  }
  return EncodeFrame(reply_type, std::move(body), trace_id,
                     profile != nullptr, EncodeProfile(profile));
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

Result<std::string> WireDispatcher::HandleFrameBytes(std::string_view bytes,
                                                     size_t* consumed) {
  size_t frame_size = 0;
  MOPE_ASSIGN_OR_RETURN(const FrameView frame, ParseFrame(bytes, &frame_size));
  if (consumed != nullptr) *consumed = frame_size;

  // Query-log sampling: every Nth data-bearing request runs traced and is
  // emitted as an `event=query` line after dispatch. Only the client's own
  // flag shapes the reply: a peer that did not ask for a profile gets none.
  const bool data_bearing =
      frame.type == static_cast<uint8_t>(MessageType::kRangeBatchRequest) ||
      frame.type == static_cast<uint8_t>(MessageType::kCountBatchRequest);
  const bool profiled = data_bearing && frame.has_profile;
  const bool sampled =
      data_bearing && options_.query_log_sample > 0 &&
      query_seq_.fetch_add(1, std::memory_order_relaxed) %
              options_.query_log_sample ==
          0;
  const bool slow_mode = options_.slow_query_threshold_ns != 0;

  // The request's own activation, with or without a trace, so instrumented
  // layers underneath (engine counters, storage WAL and checkpoint spans)
  // credit this request and never a caller's trace. Adopting the wire trace
  // id (when the client sent one) is what lets the client, the query log
  // and the slow-query export all name the same trace.
  std::optional<obs::Trace> trace;
  if (profiled || sampled || slow_mode) {
    trace.emplace("server.dispatch", clock_, frame.trace_id);
  }
  const obs::ScopedTraceActivation activation(trace ? &*trace : nullptr);
  const uint64_t start_ns = clock_->NowNanos();
  std::string reply;
  {
    const obs::ScopedSpan span("server.handle");
    const MutexLock lock(&mutex_);
    MOPE_ASSIGN_OR_RETURN(
        reply, HandleFrameLocked(frame, profiled ? &*trace : nullptr));
    server_->AddTransferBytes(frame_size, reply.size());
  }
  frames_served_->Increment();
  const uint64_t elapsed_ns = clock_->NowNanos() - start_ns;
  dispatch_ns_->Observe(elapsed_ns);
  if (slow_mode && elapsed_ns >= options_.slow_query_threshold_ns) {
    ReportSlowQuery(frame, elapsed_ns, *trace);
  }
  if (sampled) EmitQueryLog(frame, elapsed_ns, *trace);
  // The server-side trace id (== frame.trace_id when the client sent one),
  // so the done-marker joins the span events already in the ring.
  RecordDispatchDone(trace ? trace->trace_id() : frame.trace_id);
  return reply;
}

void WireDispatcher::EmitQueryLog(const FrameView& frame, uint64_t elapsed_ns,
                                  const obs::Trace& trace) {
  // One line per sampled query, every counter inline: grep `event=query` and
  // every resource the server credited to the request is on the line,
  // joinable against client-side traces via trace_id. Flows through the
  // default logger, so its rate limiter has the final say under load.
  obs::LogEvent event(obs::Logger::Default(), obs::LogLevel::kInfo, "server",
                      "query");
  event.Arg("type", static_cast<uint64_t>(frame.type))
      .Arg("elapsed_ns", elapsed_ns)
      .Arg("trace_id", trace.trace_id());
  for (const auto& [name, value] : trace.counters()) {
    event.Arg(name.c_str(), value);
  }
}

void WireDispatcher::ReportSlowQuery(const FrameView& frame,
                                     uint64_t elapsed_ns,
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

void WireDispatcher::MaybeCheckpointLocked(const FrameView& frame) {
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

std::string WireDispatcher::RangeBatchReplyLocked(
    const RangeBatchRequest& request, uint64_t trace_id,
    const obs::Trace* profile) {
  // Each row goes straight from table storage into the frame, behind the
  // reserved header and the row count, which are filled in after the sweep.
  std::string frame;
  BeginFrame(&frame, trace_id);
  const size_t payload_at = frame.size();
  engine::PutU64(&frame, 0);
  uint64_t rows = 0;
  const Status swept = server_->VisitRangeBatch(
      request.table, request.column, request.ranges,
      [&frame, &rows](engine::RowId rid, const engine::Row& row) {
        PutReplyRow(&frame, rid, row);
        ++rows;
      });
  // The profile is taken right after the engine call: a periodic
  // checkpoint that fires afterwards is a server policy cost, left out of
  // the query's profile (it shows up in the dispatch latency, the query log
  // and the slow-query trace instead).
  if (!swept.ok()) return StatusFrame(swept, trace_id, profile);
  const size_t payload_size = frame.size() - payload_at;
  if (payload_size > options_.max_reply_payload_bytes) {
    return StatusFrame(
        TooLarge(payload_size, options_.max_reply_payload_bytes), trace_id,
        profile);
  }
  StoreU64(frame.data() + payload_at, rows);
  FinishFrame(&frame, MessageType::kRangeBatchReply, trace_id,
              profile != nullptr, EncodeProfile(profile));
  return frame;
}

Result<std::string> WireDispatcher::HandleFrameLocked(
    const FrameView& frame, const obs::Trace* profile) {
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kRangeBatchRequest: {
      requests_range_batch_->Increment();
      auto request = DecodeRangeBatchRequest(frame.payload);
      if (!request.ok()) return request.status();
      std::string reply =
          RangeBatchReplyLocked(*request, frame.trace_id, profile);
      MaybeCheckpointLocked(frame);
      return reply;
    }
    case MessageType::kCountBatchRequest: {
      requests_count_batch_->Increment();
      auto request = DecodeRangeBatchRequest(frame.payload);
      if (!request.ok()) return request.status();
      const Result<uint64_t> count = server_->CountRangeBatch(
          request->table, request->column, request->ranges);
      std::string reply = ReplyOrStatus(
          count, MessageType::kCountBatchReply,
          [](uint64_t c) { return EncodeCountBatchReply(c); },
          options_.max_reply_payload_bytes, frame.trace_id, profile);
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
