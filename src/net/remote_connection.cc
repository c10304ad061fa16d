#include "net/remote_connection.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/inmem.h"
#include "obs/trace.h"

namespace mope::net {

namespace {

obs::MetricsRegistry* ResolveRegistry(obs::MetricsRegistry* registry) {
  return registry != nullptr ? registry : obs::Registry();
}

/// Adds a reply's profile entries into `trace`, the trace the request was
/// sent under. The profile must name that trace: one attributed to any
/// other trace id is Corruption, so nothing the server credited elsewhere
/// lands in this query's counters.
Status MergeProfile(std::string_view section, obs::Trace* trace) {
  MOPE_ASSIGN_OR_RETURN(const StatsReply entries, DecodeStatsReply(section));
  bool named = false;
  for (const auto& [name, value] : entries) {
    if (name != kProfileTraceIdEntry) continue;
    if (value != trace->trace_id()) {
      return Status::Corruption("profile attributed to trace " +
                                std::to_string(value) + ", not " +
                                std::to_string(trace->trace_id()));
    }
    named = true;
  }
  if (!named) return Status::Corruption("profile names no trace");
  for (const auto& [name, value] : entries) {
    if (name != kProfileTraceIdEntry) trace->IncrementCounter(name, value);
  }
  return Status::OK();
}

/// Reads one reply frame into `*raw` and validates it in place.
Result<FrameView> ReadReply(Transport* transport, std::string* raw) {
  MOPE_ASSIGN_OR_RETURN(*raw, ReadFrameBytes(transport));
  return ParseFrame(*raw, nullptr);
}

}  // namespace

RemoteConnection::RemoteConnection(RemoteOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : obs::SystemClock()),
      retries_(
          ResolveRegistry(options_.registry)->GetCounter("net.client.retries")),
      connects_(ResolveRegistry(options_.registry)
                    ->GetCounter("net.client.connects")),
      roundtrips_(ResolveRegistry(options_.registry)
                      ->GetCounter("net.client.roundtrips")),
      bytes_sent_(ResolveRegistry(options_.registry)
                      ->GetCounter("net.client.bytes_sent")),
      bytes_received_(ResolveRegistry(options_.registry)
                          ->GetCounter("net.client.bytes_received")),
      roundtrip_ns_(ResolveRegistry(options_.registry)
                        ->GetHistogram("net.client.roundtrip_ns")) {
  if (!options_.transport_factory) {
    options_.transport_factory =
        [host = options_.host, port = options_.port,
         socket = options_.socket]() -> Result<std::unique_ptr<Transport>> {
      MOPE_ASSIGN_OR_RETURN(std::unique_ptr<SocketTransport> transport,
                            ConnectTcp(host, port, socket));
      return std::unique_ptr<Transport>(std::move(transport));
    };
  }
}

Status RemoteConnection::EnsureConnectedLocked() {
  if (transport_ != nullptr) return Status::OK();
  MOPE_ASSIGN_OR_RETURN(transport_, options_.transport_factory());
  connects_->Increment();
  connect_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void RemoteConnection::DisconnectLocked() {
  if (transport_ != nullptr) {
    transport_->Close();
    transport_.reset();
  }
}

Result<std::string_view> RemoteConnection::RoundTrip(
    MessageType request_type, std::string payload, MessageType expected_reply,
    std::string* reply) {
  // One span per application-level round trip (retries included): in a query
  // trace, N of these under one segment shows the real/fake batch fan-out.
  const obs::ScopedSpan span("net.roundtrip");
  // An active trace turns on the frame's profile extension: the request
  // carries the trace id and an empty section ("profile me"), and the reply
  // brings back what the server credited to that id, added to the trace
  // below. The client's own counters credit the trace directly.
  obs::Trace* trace = obs::CurrentTrace();
  const bool want_profile = trace != nullptr;
  const uint64_t trace_id = want_profile ? trace->trace_id() : 0;
  const uint64_t start_ns = clock_->NowNanos();
  const MutexLock lock(&mutex_);
  roundtrips_->Increment();
  Status last = Status::Unavailable("no attempt made");
  for (uint32_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      retries_->Increment();
      retry_count_.fetch_add(1, std::memory_order_relaxed);
      const int backoff = std::min(
          options_.backoff_max_ms,
          options_.backoff_initial_ms << std::min(attempt - 1, 20u));
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
    }

    last = EnsureConnectedLocked();
    if (!last.ok()) {
      if (IsTransient(last)) continue;
      return last;
    }
    const uint64_t sent_bytes =
        kFrameHeaderBytes + (trace_id != 0 ? kTraceIdBytes : 0) +
        (want_profile ? kProfileLengthBytes : 0) + payload.size();
    bytes_sent_->Increment(sent_bytes);
    last = WriteFrame(transport_.get(), request_type, payload, trace_id,
                      want_profile);
    if (!last.ok()) {
      DisconnectLocked();
      if (IsTransient(last)) continue;
      return last;
    }
    auto frame = ReadReply(transport_.get(), reply);
    if (!frame.ok()) {
      // The stream is in an unknown state either way; a fresh connection is
      // the only sane base for a retry.
      DisconnectLocked();
      last = frame.status();
      if (IsTransient(last)) continue;
      return last;  // Corruption and friends: fail fast
    }
    bytes_received_->Increment(reply->size());
    if (want_profile && frame->has_profile) {
      const Status merged = MergeProfile(frame->profile, trace);
      if (!merged.ok()) {
        DisconnectLocked();
        return merged;
      }
    }
    if (frame->type == static_cast<uint8_t>(MessageType::kStatusReply)) {
      Status carried;
      MOPE_RETURN_NOT_OK(DecodeStatusReply(frame->payload, &carried));
      return carried;  // the server's answer; not a transport failure
    }
    if (frame->type != static_cast<uint8_t>(expected_reply)) {
      DisconnectLocked();
      return Status::Corruption("unexpected reply type " +
                                std::to_string(frame->type));
    }
    roundtrip_ns_->Observe(clock_->NowNanos() - start_ns);
    return frame->payload;
  }
  return last;
}

Result<std::vector<std::pair<engine::RowId, engine::Row>>>
RemoteConnection::ExecuteRangeBatch(const std::string& table,
                                    const std::string& column,
                                    const std::vector<ModularInterval>& ranges) {
  std::string reply;
  MOPE_ASSIGN_OR_RETURN(
      const std::string_view payload,
      RoundTrip(MessageType::kRangeBatchRequest,
                EncodeRangeBatchRequest({table, column, ranges}),
                MessageType::kRangeBatchReply, &reply));
  return DecodeRangeBatchReply(payload);
}

Result<uint64_t> RemoteConnection::FetchRangeBatch(
    const std::string& table, const std::string& column,
    const std::vector<ModularInterval>& ranges, size_t key_column,
    const ModularInterval& keep, RowsWithIds* kept) {
  std::string reply;
  MOPE_ASSIGN_OR_RETURN(
      const std::string_view payload,
      RoundTrip(MessageType::kRangeBatchRequest,
                EncodeRangeBatchRequest({table, column, ranges}),
                MessageType::kRangeBatchReply, &reply));
  const RowFilter filter{key_column, keep};
  return DecodeRangeBatchReply(payload, &filter, kept);
}

Result<uint64_t> RemoteConnection::CountRangeBatch(
    const std::string& table, const std::string& column,
    const std::vector<ModularInterval>& ranges) {
  std::string reply;
  MOPE_ASSIGN_OR_RETURN(
      const std::string_view payload,
      RoundTrip(MessageType::kCountBatchRequest,
                EncodeRangeBatchRequest({table, column, ranges}),
                MessageType::kCountBatchReply, &reply));
  return DecodeCountBatchReply(payload);
}

Result<engine::Schema> RemoteConnection::GetSchema(const std::string& table) {
  std::string reply;
  MOPE_ASSIGN_OR_RETURN(const std::string_view payload,
                        RoundTrip(MessageType::kSchemaRequest,
                                  EncodeSchemaRequest(table),
                                  MessageType::kSchemaReply, &reply));
  return DecodeSchemaReply(payload);
}

Result<std::vector<std::pair<std::string, uint64_t>>>
RemoteConnection::FetchServerStats() {
  std::string reply;
  MOPE_ASSIGN_OR_RETURN(const std::string_view payload,
                        RoundTrip(MessageType::kStatsRequest, std::string(),
                                  MessageType::kStatsReply, &reply));
  return DecodeStatsReply(payload);
}

uint64_t RemoteConnection::retries() const {
  return retry_count_.load(std::memory_order_relaxed);
}

uint64_t RemoteConnection::connects() const {
  return connect_count_.load(std::memory_order_relaxed);
}

Result<RemoteOptions> RemoteOptionsFor(std::string_view host_port,
                                       RemoteOptions defaults) {
  const size_t colon = host_port.rfind(':');
  if (colon == std::string_view::npos || colon == 0) {
    return Status::InvalidArgument("address must look like host:port, got '" +
                                   std::string(host_port) + "'");
  }
  MOPE_ASSIGN_OR_RETURN(defaults.port, ParsePort(host_port.substr(colon + 1)));
  defaults.host = std::string(host_port.substr(0, colon));
  defaults.transport_factory = nullptr;  // rebuilt from host and port
  return defaults;
}

std::unique_ptr<proxy::ServerConnection> MakeLoopbackWireConnection(
    engine::DbServer* server) {
  auto dispatcher = std::make_shared<WireDispatcher>(server);
  auto channel = std::make_shared<InProcessChannel>(dispatcher.get());
  RemoteOptions options;
  options.max_retries = 0;
  options.backoff_initial_ms = 0;
  // The factory keeps dispatcher and channel alive for the connection's
  // lifetime (captured shared_ptrs).
  options.transport_factory =
      [dispatcher, channel]() -> Result<std::unique_ptr<Transport>> {
    return channel->NewTransport();
  };
  return std::make_unique<RemoteConnection>(std::move(options));
}

}  // namespace mope::net
