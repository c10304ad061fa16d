#ifndef MOPE_OBS_LOG_H_
#define MOPE_OBS_LOG_H_

/// \file log.h
/// Structured, leveled logging for the daemon and the library underneath it.
///
/// Every operational message in the tree goes through one Logger: a single
/// sink behind a ranked mutex (lock_rank::kLogSink) so startup messages,
/// worker-thread connection events, and storage recovery lines never
/// interleave mid-line; per-subsystem severity thresholds so an operator can
/// turn `net` up to debug without drowning in `storage`; a token-bucket rate
/// limiter so a misbehaving client cannot turn the log into a DoS vector;
/// and an injectable obs::Clock so tests assert exact output byte-for-byte.
///
/// Events are structured, not format strings. A LogEvent is a builder:
///
///     MOPE_LOG(kInfo, "storage", "recovered")
///         .Arg("tables", tables.size())
///         .Arg("crash_recovery", true);
///
/// renders (text sink) as one line:
///
///     ts_ns=12000 level=info subsystem=storage event=recovered
///         tables=3 crash_recovery=true
///
/// or, with the JSON-lines sink, one JSON object per line with the same
/// keys. If a trace is active on the calling thread (obs/trace.h) the event
/// automatically carries `trace=<id>`, which is what lets the slow-query log
/// line be joined against a Chrome-trace export.
///
/// The logger's sink rank (75) sits above every engine/storage/net mutex and
/// below only the metrics registry, so it is legal to log while holding the
/// dispatcher (40), auditor (50) or WAL (54) locks — and the logger itself
/// may bump drop counters in a registry.
///
/// Linter rule R11 makes this the only place (outside usage-help text in
/// tools/) allowed to call fprintf-family output functions.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/clock.h"
#include "obs/registry.h"

namespace mope::obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

/// Lower-case level name ("debug", "info", "warn", "error").
const char* LogLevelName(LogLevel level);

/// Parses "debug"/"info"/"warn"/"error" (case-sensitive). Returns true and
/// sets *out on success.
bool ParseLogLevel(std::string_view name, LogLevel* out);

enum class LogFormat {
  kText,  ///< ts_ns=... level=... subsystem=... event=... k=v... [trace=N]
  kJson,  ///< one JSON object per line, same keys
};

class LogEvent;

/// A leveled, rate-limited, multi-format logger with one serialized sink.
///
/// Thread-safe. Configuration setters are expected at startup (they take the
/// sink lock, so late reconfiguration is safe too, just unusual).
class Logger {
 public:
  /// A sink receives one fully rendered line (no trailing newline) per
  /// event. The logger serializes calls under its sink lock.
  using Sink = void (*)(void* user_data, const std::string& line);

  Logger();

  /// The process-wide logger. Leaked singleton: valid from first use to
  /// process exit, safe during static destruction.
  static Logger* Default();

  // --- Configuration ------------------------------------------------------

  /// Global severity floor (default kInfo).
  void SetMinLevel(LogLevel level) MOPE_EXCLUDES(mutex_);

  /// Per-subsystem override; wins over the global floor for that subsystem.
  void SetSubsystemLevel(const std::string& subsystem, LogLevel level)
      MOPE_EXCLUDES(mutex_);
  /// Removes every per-subsystem override.
  void ClearSubsystemLevels() MOPE_EXCLUDES(mutex_);

  void SetFormat(LogFormat format) MOPE_EXCLUDES(mutex_);

  /// Clock used for the ts_ns field and for refilling the rate limiter.
  /// nullptr restores SystemClock(). The clock must outlive the logger.
  void SetClock(Clock* clock) MOPE_EXCLUDES(mutex_);

  /// Replaces the output sink. nullptr restores the default stderr sink.
  /// `user_data` is passed through to every call.
  void SetSink(Sink sink, void* user_data) MOPE_EXCLUDES(mutex_);

  /// Token-bucket rate limit across all events: up to `burst` events
  /// instantly, refilled at `rate_per_sec`. rate_per_sec == 0 disables
  /// limiting (the default). Dropped events increment the `obs.log.dropped`
  /// counter in the registry passed to SetDropCounterRegistry (if any) and
  /// are counted in dropped_total().
  void SetRateLimit(double rate_per_sec, double burst) MOPE_EXCLUDES(mutex_);

  /// Registry that receives the `obs.log.dropped` counter. May be nullptr.
  void SetDropCounterRegistry(MetricsRegistry* registry) MOPE_EXCLUDES(mutex_);

  // --- Introspection ------------------------------------------------------

  /// True if an event at (level, subsystem) would be emitted (severity check
  /// only; the rate limiter is applied at emission time).
  bool ShouldLog(LogLevel level, std::string_view subsystem) const
      MOPE_EXCLUDES(mutex_);

  /// Events dropped by the rate limiter since construction.
  uint64_t dropped_total() const MOPE_EXCLUDES(mutex_);

  /// Events emitted to the sink since construction.
  uint64_t emitted_total() const MOPE_EXCLUDES(mutex_);

 private:
  friend class LogEvent;

  /// Renders and emits one event; called by LogEvent's destructor. The
  /// severity check already passed.
  void Emit(LogLevel level, const char* subsystem, const char* event,
            uint64_t trace_id,
            const std::vector<std::pair<std::string, std::string>>& fields,
            const std::vector<bool>& field_is_string) MOPE_EXCLUDES(mutex_);

  bool RateAdmitLocked(uint64_t now_ns) MOPE_REQUIRES(mutex_);

  mutable Mutex mutex_{lock_rank::kLogSink};
  LogLevel min_level_ MOPE_GUARDED_BY(mutex_) = LogLevel::kInfo;
  std::map<std::string, LogLevel, std::less<>> subsystem_levels_
      MOPE_GUARDED_BY(mutex_);
  LogFormat format_ MOPE_GUARDED_BY(mutex_) = LogFormat::kText;
  Clock* clock_ MOPE_GUARDED_BY(mutex_);
  Sink sink_ MOPE_GUARDED_BY(mutex_);
  void* sink_user_data_ MOPE_GUARDED_BY(mutex_) = nullptr;

  // Token bucket. tokens_ is allowed to go fractional; refill is computed
  // from the injected clock so tests drive it deterministically.
  double rate_per_sec_ MOPE_GUARDED_BY(mutex_) = 0.0;
  double burst_ MOPE_GUARDED_BY(mutex_) = 0.0;
  double tokens_ MOPE_GUARDED_BY(mutex_) = 0.0;
  uint64_t last_refill_ns_ MOPE_GUARDED_BY(mutex_) = 0;

  uint64_t dropped_total_ MOPE_GUARDED_BY(mutex_) = 0;
  uint64_t emitted_total_ MOPE_GUARDED_BY(mutex_) = 0;
  MetricsRegistry* drop_registry_ MOPE_GUARDED_BY(mutex_) = nullptr;
};

/// Builder for one structured event. Constructed by MOPE_LOG; the event is
/// rendered and emitted when the temporary dies at the end of the statement.
/// Captures the active trace id at construction.
///
/// If the severity check fails at construction the builder is inert: Arg()
/// calls are no-ops and nothing is emitted, so disabled log statements cost
/// two comparisons and no allocation for the arguments.
class LogEvent {
 public:
  LogEvent(Logger* logger, LogLevel level, const char* subsystem,
           const char* event);
  ~LogEvent();

  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  LogEvent& Arg(const char* key, const std::string& value);
  LogEvent& Arg(const char* key, const char* value);
  LogEvent& Arg(const char* key, std::string_view value);
  LogEvent& Arg(const char* key, bool value);
  LogEvent& Arg(const char* key, double value);
  LogEvent& Arg(const char* key, uint64_t value);
  LogEvent& Arg(const char* key, int64_t value);
  LogEvent& Arg(const char* key, uint32_t value) {
    return Arg(key, static_cast<uint64_t>(value));
  }
  LogEvent& Arg(const char* key, int value) {
    return Arg(key, static_cast<int64_t>(value));
  }

 private:
  Logger* logger_;  ///< nullptr when the event was filtered at construction.
  LogLevel level_;
  const char* subsystem_;
  const char* event_;
  uint64_t trace_id_;
  std::vector<std::pair<std::string, std::string>> fields_;
  /// Parallel to fields_: whether the value needs quoting in JSON output.
  std::vector<bool> field_is_string_;
};

}  // namespace mope::obs

/// Logs one structured event to the default logger:
///   MOPE_LOG(kInfo, "net", "listening").Arg("port", port);
/// Severity names are the LogLevel enumerators (kDebug/kInfo/kWarn/kError).
#define MOPE_LOG(severity, subsystem, event)                      \
  ::mope::obs::LogEvent(::mope::obs::Logger::Default(),           \
                        ::mope::obs::LogLevel::severity, (subsystem), (event))

#endif  // MOPE_OBS_LOG_H_
