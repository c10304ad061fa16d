#ifndef MOPE_OBS_FLIGHT_RECORDER_H_
#define MOPE_OBS_FLIGHT_RECORDER_H_

/// \file flight_recorder.h
/// Crash flight recorder: the last N observability events, kept in lock-free
/// rings and persisted as a black-box file a postmortem can read.
///
/// The recorder holds a fixed set of entry rings (one per thread slot; a
/// thread claims a slot on its first Record and keeps it). Recording is
/// lock-free and allocation-free — every entry field is an atomic written
/// relaxed, sequenced by a per-entry seqlock-style generation — so the hooks
/// in Trace::StartSpan/EndSpan and Logger::Emit may record under any lock,
/// the log-sink (75) mutex included, without ordering concerns, and a
/// recording thread can never block another.
///
/// Two paths get the rings onto disk:
///
///   1. Continuous persistence. Persist()/PersistIfDirty() serialize the
///      rings (sorted by global sequence number) plus the last metrics
///      snapshot and write them through storage::Env::WriteFileAtomic. The
///      wire dispatcher calls PersistIfDirty() on request boundaries, so a
///      kill -9 — which no handler can observe — still leaves a black box
///      whose last recorded event is the last completed dispatch.
///   2. Fatal-signal dump. For catchable fatal signals (SIGSEGV, SIGABRT,
///      SIGBUS, SIGILL, SIGFPE) the daemon's handler calls
///      FatalSignalDump(), the only API that is async-signal-safe: it
///      formats entries with a hand-rolled integer writer into fixed
///      buffers and appends them through a *pre-opened* AppendFile
///      (PosixAppendFile::Append is a raw ::write loop) to `<path>.fatal`.
///      No allocation, no printf, no locks — linter rule R13 enforces that
///      fatal handlers call nothing but this API.
///
/// The black-box format is line-oriented text:
///
///     mope-blackbox v1
///     event seq=12 ts_ns=512000 kind=span_begin name=server.dispatch trace=7
///     ...
///     metrics
///     <Prometheus text rendering of the registry>
///
/// and `<path>.fatal` carries `fatal signo=N`, unsorted event lines (the
/// handler cannot afford a sort barrier being interrupted — the reader
/// sorts), and `end`. FormatDump() parses either file back into sorted,
/// human-readable text plus `blackbox.last_*` summary lines; mope_serverd
/// exposes it as `--dump-blackbox FILE`.
///
/// The recorder never links the storage library: it uses storage::Env purely
/// through the virtual interface a caller hands it (mope_storage links
/// mope_obs, so the reverse edge would be a cycle).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "storage/env.h"

namespace mope::obs {

class FlightRecorder {
 public:
  enum class EventKind : uint8_t {
    kSpanBegin = 0,
    kSpanEnd = 1,
    kLog = 2,
    kEvent = 3,  ///< explicit marks (e.g. the dispatcher's request boundary)
  };
  static const char* EventKindName(EventKind kind);

  struct Options {
    /// Entries per thread-slot ring (rounded up to a power of two).
    size_t ring_entries = 256;
    /// Thread slots. Extra threads hash onto existing slots (the rings are
    /// multi-writer-safe; sharing only costs contention).
    size_t max_threads = 16;
    /// Black-box path; the fatal dump appends to `<path>.fatal`.
    std::string path;
  };

  /// `env` must outlive the recorder and is used via virtual dispatch only.
  /// `registry` (may be nullptr) contributes the metrics section of the
  /// black box and receives the `obs.flightrecorder.events` counter.
  FlightRecorder(storage::Env* env, Options options, Clock* clock = nullptr,
                 MetricsRegistry* registry = nullptr);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // --- Global installation -------------------------------------------------
  /// Installs `recorder` as the process-wide recorder the trace/log hooks
  /// feed (nullptr uninstalls). The caller keeps ownership and must
  /// uninstall before destruction.
  static void Install(FlightRecorder* recorder);
  static FlightRecorder* Installed();

  // --- Recording (lock-free, allocation-free) ------------------------------
  /// Records one event. `name` is truncated to kNameCapacity-1 bytes.
  void Record(EventKind kind, const char* name, uint64_t trace_id);

  // --- Persistence ---------------------------------------------------------
  /// Serializes the rings (seq-sorted) + metrics snapshot and atomically
  /// replaces the black-box file. Takes the recorder mutex (rank 71).
  Status Persist() MOPE_EXCLUDES(mutex_);
  /// Persist(), skipped cheaply when nothing was recorded since the last
  /// successful Persist().
  Status PersistIfDirty() MOPE_EXCLUDES(mutex_);

  /// Opens the `<path>.fatal` append handle ahead of time so the signal
  /// handler never has to. Call once after construction (not signal-safe).
  Status PrepareFatalDump() MOPE_EXCLUDES(mutex_);
  /// Async-signal-safe dump of every live entry to the pre-opened
  /// `<path>.fatal` handle. The ONLY recorder API legal inside a fatal
  /// signal handler (linter rule R13). No-op unless PrepareFatalDump()
  /// succeeded; reentrancy-guarded.
  void FatalSignalDump(int signo);

  // --- Reader --------------------------------------------------------------
  /// Reads a black box written by Persist() — and, when present, its
  /// `.fatal` sibling — and renders seq-sorted human-readable text ending
  /// with summary lines:
  ///     blackbox.events=<n>
  ///     blackbox.last_seq=<n>
  ///     blackbox.last_trace_id=<id>
  static Result<std::string> FormatDump(storage::Env* env,
                                        const std::string& path);

  // --- Introspection -------------------------------------------------------
  uint64_t events_recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }
  const std::string& path() const { return options_.path; }

  /// Entry name capacity (including the terminator).
  static constexpr size_t kNameCapacity = 48;

 private:
  /// One ring entry. Fields are individually atomic (relaxed) and sequenced
  /// by `seq`: the writer zeroes seq, writes the fields, then publishes seq
  /// with release; readers snapshot under two acquire loads of seq and
  /// discard torn entries. seq == 0 means "never written".
  struct Entry {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<char> name[kNameCapacity] = {};
  };

  struct Slot {
    std::atomic<uint64_t> next{0};  ///< claim index; entry = next & mask
  };

  /// A consistent copy of one entry, for persistence.
  struct EntryCopy {
    uint64_t seq;
    uint64_t ts_ns;
    uint64_t trace_id;
    uint8_t kind;
    char name[kNameCapacity];
  };

  size_t SlotIndexForThisThread();
  /// Snapshots every live entry (unsorted).
  std::vector<EntryCopy> CollectEntries() const;
  /// True and `*out` filled iff the entry read back consistent and live.
  bool SnapshotEntry(const Entry& entry, EntryCopy* out) const;

  storage::Env* const env_;
  const Options options_;
  Clock* const clock_;
  MetricsRegistry* const registry_;
  const size_t ring_mask_;  ///< ring_entries rounded to pow2, minus one

  std::unique_ptr<Entry[]> entries_;  ///< max_threads * (ring_mask_ + 1)
  std::unique_ptr<Slot[]> slots_;

  std::atomic<uint64_t> seq_{0};  ///< global publication order; 1-based
  std::atomic<uint64_t> last_persisted_seq_{0};

  /// Serializes Persist() against itself (rank 71; below log sink and
  /// registry, both of which a persist pass may read). It guards the
  /// persist *critical section*, not member state: every member is an
  /// atomic that Record() must keep writing lock-free mid-persist.
  mutable Mutex mutex_{  // invariant-ok: guards a section, all state atomic
      lock_rank::kFlightRecorder};

  // Fatal-dump state: pre-opened append handle plus a reentrancy latch.
  // The unique_ptr is set once by PrepareFatalDump() (before any handler
  // can run) and only read afterwards.
  std::unique_ptr<storage::AppendFile> fatal_file_;
  std::atomic<bool> fatal_dumped_{false};

  Counter* events_counter_;  ///< nullptr when no registry was given
};

}  // namespace mope::obs

#endif  // MOPE_OBS_FLIGHT_RECORDER_H_
