#ifndef MOPE_STORAGE_STORAGE_ENGINE_H_
#define MOPE_STORAGE_STORAGE_ENGINE_H_

/// \file storage_engine.h
/// The storage subsystem's front door: owns the data directory (WAL, meta),
/// hands the last checkpoint image and the records logged after it to the
/// engine at open, and implements the checkpoint protocol. Records and the
/// image are opaque bytes here; engine/durability.cc is the only code that
/// knows what they mean.
///
/// Data directory layout:
///   wal.log        write-ahead log (Wal): one record per engine mutation
///                  since the last checkpoint
///   storage.meta   the checkpoint, replaced atomically:
///                  magic "MOPEMET2", u64 checkpoint_lsn, u64 next_lsn,
///                  u64 image_len, image, u32 CRC-32 of all preceding
///                  bytes. The image is the engine's whole durable state.
///
/// Open = recovery. Read the meta (if any) and every WAL record with
/// LSN > checkpoint_lsn. If the log held anything at all — whole records
/// or only a torn tail — the run is crash_recovered(): the owner replays
/// the records onto the image and must Checkpoint before logging anything
/// new, because records appended behind a torn tail would never be read
/// back (replay stops at the first bad frame).
///
/// Checkpoint protocol (the order is the correctness argument):
///   1. WAL Sync     — every logged record is durable.
///   2. Meta write   — atomic rename flips the checkpoint LSN and the image
///                     in one step.
///   3. WAL Restart  — truncate + fsync; the old records are dead (and if
///                     the truncate is lost to a crash, the checkpoint LSN
///                     filter ignores them anyway).
///
/// A crash between any two steps recovers correctly: before 2 the old image
/// plus the whole log; after 2 the new image plus an empty (or
/// stale-and-filtered) log.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace mope::storage {

struct StorageOptions {
  /// WAL group-commit policy: fsync every N records (1 = every record,
  /// 0 = only explicit Sync/Checkpoint).
  uint64_t wal_sync_every = 32;
  /// Defaults to Env::Posix(); tests inject InMemEnv / FaultyEnv.
  Env* env = nullptr;
  /// Defaults to the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Times the fsync latency histogram. Defaults to SystemClock(); tests
  /// inject a ManualClock for deterministic buckets.
  obs::Clock* clock = nullptr;
};

class StorageEngine {
 public:
  /// Opens (creating if needed) the data directory and runs recovery.
  static Result<std::unique_ptr<StorageEngine>> Open(
      const std::string& dir, const StorageOptions& options);

  /// The image from the last checkpoint (empty for a fresh dir). Moved out:
  /// later calls return an empty string.
  std::string TakeImage() { return std::move(image_); }

  /// The records logged after that checkpoint, in LSN order. Moved out.
  std::vector<WalRecord> TakeRecords() { return std::move(records_); }

  /// True when the log held anything past the last checkpoint at Open: the
  /// owner must Checkpoint before its next Log.
  bool crash_recovered() const { return crash_recovered_; }

  /// Number of WAL records recovered at Open (for logs/metrics).
  uint64_t recovered_records() const { return recovered_records_; }

  /// Appends one record; returns its LSN. It is durable after the next
  /// Sync, or sooner under the wal_sync_every policy.
  Result<uint64_t> Log(std::string_view record) {
    return wal_->Append(WalRecordType::kCatalog, record);
  }

  /// Group-commit flush point: makes everything logged so far durable
  /// without the full checkpoint.
  Status Sync() { return wal_->Sync(); }

  /// Runs the checkpoint protocol, persisting `image` as the new durable
  /// state. Callers quiesce writers across the call: a record logged
  /// between the Sync and the Restart would be lost.
  Status Checkpoint(std::string_view image);

 private:
  StorageEngine(Env* env, std::string dir, std::unique_ptr<Wal> wal,
                obs::MetricsRegistry* metrics);

  Env* const env_;
  const std::string dir_;
  std::unique_ptr<Wal> wal_;

  std::string image_;
  std::vector<WalRecord> records_;
  bool crash_recovered_ = false;
  uint64_t recovered_records_ = 0;

  obs::Counter* recoveries_;
  obs::Counter* recovered_records_counter_;
  obs::Counter* checkpoints_;
};

}  // namespace mope::storage

#endif  // MOPE_STORAGE_STORAGE_ENGINE_H_
