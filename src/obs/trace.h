#ifndef MOPE_OBS_TRACE_H_
#define MOPE_OBS_TRACE_H_

/// \file trace.h
/// Per-query trace spans: one user query becomes one span tree.
///
/// A Trace is created at a query entry point (EncryptedSqlSession::Execute,
/// the server's WireDispatcher for one request, or any caller that wants a
/// profile of what it runs), activated for the current thread,
/// and then every instrumented layer underneath — the SQL parser, the
/// fake-query sampling, MOPE encryption, each server round trip, the
/// decrypt/filter pass — contributes spans without any plumbing through
/// signatures: `ScopedSpan span("proxy.encrypt")` reads the thread-local
/// active trace and is a no-op (two branches, no allocation) when tracing is
/// off, which is what keeps the hot paths honest.
///
/// The trace also carries named counters for events too fine-grained to be
/// spans (HGD draws, decrypt calls, rows swept). They are not bumped by
/// hand: every obs::Counter increment on a thread with an active trace adds
/// to the trace's counter of the same name (obs/registry.h). The trace is
/// the one per-query context: its counters are EXPLAIN ANALYZE's resource
/// vector, the wire profile a server returns and the sampled query-log
/// line. Its 64-bit id is what RemoteConnection stamps into the wire frame
/// header so a server can attribute its own work to the client's trace (see
/// net/wire.h, version 2 frames).
///
/// A Trace takes no lock. Only the thread that activated it records into
/// it, and it is read on that thread or after that thread is done with it
/// (a query's trace is read once the query returns). The lock-free credit
/// is what lets a counter be bumped under any mutex, including the log
/// sink's.
///
/// Timing comes from an injectable Clock (obs/clock.h): production traces
/// use SystemClock(), tests use a ManualClock with auto-advance so span
/// trees are byte-stable. Ids are drawn from a process-wide counter — no
/// wall clock, no randomness.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/clock.h"

namespace mope::obs {

/// One timed operation in a trace. `parent` is the index+1 of the enclosing
/// span (0 for roots), so the vector is the tree.
struct Span {
  std::string name;
  uint32_t parent = 0;       ///< 1-based index of parent span; 0 = root.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;       ///< 0 while the span is open.
};

class Trace {
 public:
  /// `clock` must outlive the trace; nullptr selects SystemClock().
  /// `forced_id` adopts an externally assigned trace id (a server picking up
  /// the id a client stamped into the wire frame header); 0 draws a fresh id
  /// from the process-wide counter.
  explicit Trace(std::string name, Clock* clock = nullptr,
                 uint64_t forced_id = 0);

  uint64_t trace_id() const { return trace_id_; }
  const std::string& name() const { return name_; }

  /// Opens a span as a child of the innermost open span (so nesting follows
  /// call structure). Returns the 1-based span id for EndSpan.
  uint32_t StartSpan(std::string span_name);
  void EndSpan(uint32_t id);

  /// Adds `n` to a per-trace named counter. obs::Counter calls this for
  /// the active trace; a server also adds the profile a reply brought back.
  void IncrementCounter(const std::string& name, uint64_t n = 1);

  // --- Inspection (on the recording thread, or after it is done) ---------
  std::vector<Span> spans() const;
  std::map<std::string, uint64_t> counters() const;

  /// Number of spans whose name is exactly `span_name`.
  size_t CountSpans(const std::string& span_name) const;

  /// True if every span's timestamps are monotone (start <= end, children
  /// within [start, end] of their parent, and siblings ordered by start).
  bool TimingsMonotone() const;

  /// Indented ASCII rendering of the tree with durations in microseconds,
  /// followed by the per-trace counters.
  std::string RenderTree() const;

 private:
  const std::string name_;
  Clock* const clock_;
  const uint64_t trace_id_;

  std::vector<Span> spans_;
  /// 1-based ids of open spans.
  std::vector<uint32_t> open_stack_;
  std::map<std::string, uint64_t> counters_;
};

// --- Thread-local activation ---------------------------------------------

/// The trace active on this thread, or nullptr. Instrumented code calls
/// this (via ScopedSpan and obs::Counter) instead of taking a Trace
/// parameter.
Trace* CurrentTrace();

/// Trace id of the active trace, 0 when tracing is off. This is what the
/// wire layer stamps into outgoing frame headers.
uint64_t CurrentTraceId();

/// Installs `trace` as the thread's active trace for the scope's lifetime
/// and restores the previous one (traces may nest) on destruction.
class ScopedTraceActivation {
 public:
  explicit ScopedTraceActivation(Trace* trace);
  ~ScopedTraceActivation();

  ScopedTraceActivation(const ScopedTraceActivation&) = delete;
  ScopedTraceActivation& operator=(const ScopedTraceActivation&) = delete;

 private:
  Trace* previous_;
};

/// RAII span against the thread's active trace; free when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : trace_(CurrentTrace()) {
    if (trace_ != nullptr) id_ = trace_->StartSpan(name);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  uint32_t id_ = 0;
};

}  // namespace mope::obs

#endif  // MOPE_OBS_TRACE_H_
