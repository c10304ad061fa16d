#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <utility>

#include "obs/flight_recorder.h"

namespace mope::obs {

namespace {

uint64_t NextTraceId() {
  // Process-wide, deterministic (no clock, no randomness): trace N of a run
  // is always trace N. Starts at 1 so 0 can mean "no trace" on the wire.
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

thread_local Trace* t_current_trace = nullptr;

}  // namespace

Trace::Trace(std::string name, Clock* clock, uint64_t forced_id)
    : name_(std::move(name)),
      clock_(clock != nullptr ? clock : SystemClock()),
      trace_id_(forced_id != 0 ? forced_id : NextTraceId()) {}

uint32_t Trace::StartSpan(std::string span_name) {
  const uint64_t now = clock_->NowNanos();
  if (FlightRecorder* recorder = FlightRecorder::Installed()) {
    recorder->Record(FlightRecorder::EventKind::kSpanBegin,
                     span_name.c_str(), trace_id_);
  }
  Span span;
  span.name = std::move(span_name);
  span.parent = open_stack_.empty() ? 0 : open_stack_.back();
  span.start_ns = now;
  spans_.push_back(std::move(span));
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  open_stack_.push_back(id);
  return id;
}

void Trace::EndSpan(uint32_t id) {
  const uint64_t now = clock_->NowNanos();
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = now;
  if (FlightRecorder* recorder = FlightRecorder::Installed()) {
    recorder->Record(FlightRecorder::EventKind::kSpanEnd,
                     spans_[id - 1].name.c_str(), trace_id_);
  }
  // Spans close LIFO in correct code; tolerate out-of-order ends by popping
  // through the target so the stack never wedges.
  while (!open_stack_.empty()) {
    const uint32_t top = open_stack_.back();
    open_stack_.pop_back();
    if (top == id) break;
  }
}

void Trace::IncrementCounter(const std::string& name, uint64_t n) {
  counters_[name] += n;
}

std::vector<Span> Trace::spans() const { return spans_; }

std::map<std::string, uint64_t> Trace::counters() const { return counters_; }

size_t Trace::CountSpans(const std::string& span_name) const {
  size_t n = 0;
  for (const Span& span : spans_) {
    if (span.name == span_name) ++n;
  }
  return n;
}

bool Trace::TimingsMonotone() const {
  uint64_t last_sibling_start = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns != 0 && span.end_ns < span.start_ns) return false;
    if (span.parent != 0) {
      const Span& parent = spans_[span.parent - 1];
      if (span.start_ns < parent.start_ns) return false;
      if (parent.end_ns != 0 && span.end_ns != 0 &&
          span.end_ns > parent.end_ns) {
        return false;
      }
    }
    // Spans are appended in start order by construction; verify anyway.
    if (span.start_ns < last_sibling_start &&
        i > 0 && span.parent == spans_[i - 1].parent) {
      return false;
    }
    last_sibling_start = span.start_ns;
  }
  return true;
}

std::string Trace::RenderTree() const {
  std::string out =
      "trace " + std::to_string(trace_id_) + " \"" + name_ + "\"\n";
  // Depth of each span = depth(parent) + 1, computable in one pass because
  // parents always precede children.
  std::vector<int> depth(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent != 0) depth[i] = depth[span.parent - 1] + 1;
    const uint64_t dur_ns =
        span.end_ns >= span.start_ns ? span.end_ns - span.start_ns : 0;
    char line[160];
    std::snprintf(line, sizeof(line), "%*s%s  %.3fus\n", 2 * (depth[i] + 1),
                  "", span.name.c_str(), static_cast<double>(dur_ns) / 1000.0);
    out += line;
  }
  for (const auto& [name, value] : counters_) {
    out += "  #" + name + " = " + std::to_string(value) + "\n";
  }
  return out;
}

Trace* CurrentTrace() { return t_current_trace; }

uint64_t CurrentTraceId() {
  const Trace* trace = t_current_trace;
  return trace != nullptr ? trace->trace_id() : 0;
}

ScopedTraceActivation::ScopedTraceActivation(Trace* trace)
    : previous_(t_current_trace) {
  t_current_trace = trace;
}

ScopedTraceActivation::~ScopedTraceActivation() {
  t_current_trace = previous_;
}

}  // namespace mope::obs
