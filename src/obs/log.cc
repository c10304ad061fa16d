#include "obs/log.h"

#include <cinttypes>
#include <cstdio>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace mope::obs {

namespace {

/// Name of the registry counter bumped when the rate limiter drops an event.
constexpr char kDroppedCounterName[] = "obs.log.dropped";

void StderrSink(void* /*user_data*/, const std::string& line) {
  // The one legal raw-output call site for operational logging (linter rule
  // R11 exempts src/obs/log.*). One fputs per event: the line was rendered
  // fully under the sink lock, so concurrent events never interleave.
  std::fputs(line.c_str(), stderr);
  std::fputc('\n', stderr);
}

/// True if a text-format value can be emitted bare (no quoting needed).
bool TextValueIsBare(const std::string& v) {
  if (v.empty()) return false;
  for (char c : v) {
    if (c == ' ' || c == '"' || c == '=' || c == '\\' || c == '\n' ||
        c == '\t') {
      return false;
    }
  }
  return true;
}

void AppendQuoted(const std::string& v, std::string* out) {
  out->push_back('"');
  internal::AppendJsonEscaped(v, out);
  out->push_back('"');
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

bool ParseLogLevel(std::string_view name, LogLevel* out) {
  if (name == "debug") {
    *out = LogLevel::kDebug;
  } else if (name == "info") {
    *out = LogLevel::kInfo;
  } else if (name == "warn") {
    *out = LogLevel::kWarn;
  } else if (name == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

Logger::Logger() : clock_(SystemClock()), sink_(&StderrSink) {}

Logger* Logger::Default() {
  static Logger* logger = new Logger();  // Leaked: outlives static dtors.
  return logger;
}

void Logger::SetMinLevel(LogLevel level) {
  const MutexLock lock(&mutex_);
  min_level_ = level;
}

void Logger::SetSubsystemLevel(const std::string& subsystem, LogLevel level) {
  const MutexLock lock(&mutex_);
  subsystem_levels_[subsystem] = level;
}

void Logger::ClearSubsystemLevels() {
  const MutexLock lock(&mutex_);
  subsystem_levels_.clear();
}

void Logger::SetFormat(LogFormat format) {
  const MutexLock lock(&mutex_);
  format_ = format;
}

void Logger::SetClock(Clock* clock) {
  const MutexLock lock(&mutex_);
  clock_ = clock != nullptr ? clock : SystemClock();
  last_refill_ns_ = 0;  // Re-anchor the bucket to the new timeline.
}

void Logger::SetSink(Sink sink, void* user_data) {
  const MutexLock lock(&mutex_);
  sink_ = sink != nullptr ? sink : &StderrSink;
  sink_user_data_ = sink != nullptr ? user_data : nullptr;
}

void Logger::SetRateLimit(double rate_per_sec, double burst) {
  const MutexLock lock(&mutex_);
  rate_per_sec_ = rate_per_sec;
  burst_ = burst;
  tokens_ = burst;
  last_refill_ns_ = 0;
}

void Logger::SetDropCounterRegistry(MetricsRegistry* registry) {
  const MutexLock lock(&mutex_);
  drop_registry_ = registry;
}

bool Logger::ShouldLog(LogLevel level, std::string_view subsystem) const {
  const MutexLock lock(&mutex_);
  const auto it = subsystem_levels_.find(subsystem);
  const LogLevel floor =
      it != subsystem_levels_.end() ? it->second : min_level_;
  return static_cast<int>(level) >= static_cast<int>(floor);
}

uint64_t Logger::dropped_total() const {
  const MutexLock lock(&mutex_);
  return dropped_total_;
}

uint64_t Logger::emitted_total() const {
  const MutexLock lock(&mutex_);
  return emitted_total_;
}

bool Logger::RateAdmitLocked(uint64_t now_ns) {
  if (rate_per_sec_ <= 0.0) return true;
  if (last_refill_ns_ == 0) {
    last_refill_ns_ = now_ns;
  } else if (now_ns > last_refill_ns_) {
    const double elapsed_s =
        static_cast<double>(now_ns - last_refill_ns_) / 1e9;
    tokens_ += elapsed_s * rate_per_sec_;
    if (tokens_ > burst_) tokens_ = burst_;
    last_refill_ns_ = now_ns;
  }
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

void Logger::Emit(
    LogLevel level, const char* subsystem, const char* event,
    uint64_t trace_id,
    const std::vector<std::pair<std::string, std::string>>& fields,
    const std::vector<bool>& field_is_string) {
  std::string line;
  line.reserve(96);

  Counter* drop_counter = nullptr;
  Sink sink;
  void* sink_user_data;
  {
    const MutexLock lock(&mutex_);
    const uint64_t now_ns = clock_->NowNanos();
    if (!RateAdmitLocked(now_ns)) {
      ++dropped_total_;
      if (drop_registry_ != nullptr) {
        // GetCounter takes the registry mutex (rank 80 > 75: legal here).
        drop_counter = drop_registry_->GetCounter(kDroppedCounterName);
      }
      if (drop_counter != nullptr) drop_counter->Increment();
      return;
    }
    ++emitted_total_;

    char num[32];
    if (format_ == LogFormat::kText) {
      line += "ts_ns=";
      std::snprintf(num, sizeof(num), "%" PRIu64, now_ns);
      line += num;
      line += " level=";
      line += LogLevelName(level);
      line += " subsystem=";
      line += subsystem;
      line += " event=";
      line += event;
      for (size_t i = 0; i < fields.size(); ++i) {
        line.push_back(' ');
        line += fields[i].first;
        line.push_back('=');
        if (!field_is_string[i] || TextValueIsBare(fields[i].second)) {
          line += fields[i].second;
        } else {
          AppendQuoted(fields[i].second, &line);
        }
      }
      if (trace_id != 0) {
        line += " trace=";
        std::snprintf(num, sizeof(num), "%" PRIu64, trace_id);
        line += num;
      }
    } else {
      line += "{\"ts_ns\":";
      std::snprintf(num, sizeof(num), "%" PRIu64, now_ns);
      line += num;
      line += ",\"level\":\"";
      line += LogLevelName(level);
      line += "\",\"subsystem\":";
      AppendQuoted(subsystem, &line);
      line += ",\"event\":";
      AppendQuoted(event, &line);
      for (size_t i = 0; i < fields.size(); ++i) {
        line.push_back(',');
        AppendQuoted(fields[i].first, &line);
        line.push_back(':');
        if (field_is_string[i]) {
          AppendQuoted(fields[i].second, &line);
        } else {
          line += fields[i].second;
        }
      }
      if (trace_id != 0) {
        line += ",\"trace\":";
        std::snprintf(num, sizeof(num), "%" PRIu64, trace_id);
        line += num;
      }
      line.push_back('}');
    }
    sink = sink_;
    sink_user_data = sink_user_data_;
    // Emit while still holding the sink lock: that IS the serialization
    // guarantee (satellite: startup/shutdown vs worker-thread output).
    sink(sink_user_data, line);
  }
  // Every emitted event also lands in the crash flight recorder's ring
  // (lock-free), so a postmortem black box replays the tail of the log.
  if (FlightRecorder* recorder = FlightRecorder::Installed()) {
    recorder->Record(FlightRecorder::EventKind::kLog, event, trace_id);
  }
}

LogEvent::LogEvent(Logger* logger, LogLevel level, const char* subsystem,
                   const char* event)
    : logger_(logger != nullptr && logger->ShouldLog(level, subsystem)
                  ? logger
                  : nullptr),
      level_(level),
      subsystem_(subsystem),
      event_(event),
      trace_id_(logger_ != nullptr ? CurrentTraceId() : 0) {}

LogEvent::~LogEvent() {
  if (logger_ == nullptr) return;
  logger_->Emit(level_, subsystem_, event_, trace_id_, fields_,
                field_is_string_);
}

LogEvent& LogEvent::Arg(const char* key, const std::string& value) {
  if (logger_ == nullptr) return *this;
  fields_.emplace_back(key, value);
  field_is_string_.push_back(true);
  return *this;
}

LogEvent& LogEvent::Arg(const char* key, const char* value) {
  if (logger_ == nullptr) return *this;
  fields_.emplace_back(key, value);
  field_is_string_.push_back(true);
  return *this;
}

LogEvent& LogEvent::Arg(const char* key, std::string_view value) {
  if (logger_ == nullptr) return *this;
  fields_.emplace_back(key, std::string(value));
  field_is_string_.push_back(true);
  return *this;
}

LogEvent& LogEvent::Arg(const char* key, bool value) {
  if (logger_ == nullptr) return *this;
  fields_.emplace_back(key, value ? "true" : "false");
  field_is_string_.push_back(false);
  return *this;
}

LogEvent& LogEvent::Arg(const char* key, double value) {
  if (logger_ == nullptr) return *this;
  fields_.emplace_back(key, internal::DoubleField(value));
  field_is_string_.push_back(false);
  return *this;
}

LogEvent& LogEvent::Arg(const char* key, uint64_t value) {
  if (logger_ == nullptr) return *this;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  fields_.emplace_back(key, buf);
  field_is_string_.push_back(false);
  return *this;
}

LogEvent& LogEvent::Arg(const char* key, int64_t value) {
  if (logger_ == nullptr) return *this;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  fields_.emplace_back(key, buf);
  field_is_string_.push_back(false);
  return *this;
}

}  // namespace mope::obs
