#include "obs/trace_export.h"

#include <map>
#include <sstream>
#include <vector>

#include "obs/json.h"

namespace mope::obs {

std::string ExportChromeTrace(const Trace& trace, int pid, int tid) {
  const std::vector<Span> spans = trace.spans();
  const std::map<std::string, uint64_t> counters = trace.counters();

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  // Track metadata: name the (pid, tid) lane after the trace.
  out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
      << internal::JsonEscape(trace.name()) << "\"}}";

  // Spans as complete events; ts/dur in integer microseconds (the format's
  // native unit). An open span (end_ns == 0) exports with dur 0 — visible
  // as an instant at its start rather than silently dropped.
  uint64_t last_end_us = 0;
  for (const Span& span : spans) {
    const uint64_t ts_us = span.start_ns / 1000;
    const uint64_t end_us = span.end_ns / 1000;
    const uint64_t dur_us = end_us > ts_us ? end_us - ts_us : 0;
    if (end_us > last_end_us) last_end_us = end_us;
    out << ",{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"name\":\"" << internal::JsonEscape(span.name)
        << "\",\"ts\":" << ts_us << ",\"dur\":" << dur_us << "}";
  }

  // Counters as one final sample each, so the viewer's counter track shows
  // the per-trace totals at the point the query finished.
  for (const auto& [name, value] : counters) {
    out << ",{\"ph\":\"C\",\"pid\":" << pid << ",\"name\":\""
        << internal::JsonEscape(name) << "\",\"ts\":" << last_end_us
        << ",\"args\":{\"value\":" << value << "}}";
  }

  // The trace id rides along so an exported file can be joined against the
  // structured log line (`trace=<id>`) that pointed at it.
  out << "],\"otherData\":{\"trace_id\":\"" << trace.trace_id() << "\"}}";
  return out.str();
}

}  // namespace mope::obs
