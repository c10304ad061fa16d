#ifndef MOPE_STORAGE_WAL_H_
#define MOPE_STORAGE_WAL_H_

/// \file wal.h
/// Write-ahead log: append, group fsync, torn-tail-tolerant replay.
///
/// Record framing (little-endian):
///
///   offset  size  field
///        0     4  CRC-32 of everything after this field
///        4     4  payload length
///        8     8  LSN (monotone across the log's lifetime, never reused)
///       16     1  record type (WalRecordType)
///       17     n  payload
///
/// Appends are buffered in user space and pushed to the medium in groups:
/// one write + one fsync per `sync_every` records (group commit). A record
/// is *committed* once Sync() has covered it; a crash loses at most the
/// un-synced suffix, and replay recovers exactly the committed prefix —
/// ReadAll stops at the first truncated or checksum-bad record, which is
/// what a torn tail looks like.
///
/// Records are opaque here: the engine encodes one logical mutation per
/// record (engine/durability.h) and replays them itself. A checkpoint writes
/// the durable meta *before* truncating the log, so a crash between the two
/// leaves stale records behind; the meta's checkpoint LSN passed to ReadAll
/// filters them out.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "storage/env.h"

namespace mope::storage {

enum class WalRecordType : uint8_t {
  /// The engine's logical records (DDL and row mutations); opaque here.
  kCatalog = 1,
};

struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kCatalog;
  std::string payload;
};

class Wal {
 public:
  /// Opens the log for appending (keeping existing contents — recovery
  /// reads them first via ReadAll). `next_lsn` must be greater than every
  /// LSN already in the file. `sync_every` = N groups N appends per fsync
  /// (1 = sync every record; 0 = only explicit Sync calls). `clock` times
  /// the per-fsync latency histogram (nullptr = SystemClock).
  static Result<std::unique_ptr<Wal>> Open(Env* env, const std::string& path,
                                           uint64_t next_lsn,
                                           uint64_t sync_every,
                                           obs::MetricsRegistry* metrics,
                                           obs::Clock* clock = nullptr);

  /// Appends one record, returns its LSN. May auto-Sync per policy.
  Result<uint64_t> Append(WalRecordType type, std::string_view payload)
      MOPE_EXCLUDES(mutex_);

  /// Flushes buffered appends and fsyncs: everything appended so far is
  /// committed when this returns OK. The group-commit point.
  Status Sync() MOPE_EXCLUDES(mutex_);

  /// Truncates the log after a checkpoint and fsyncs the truncation. LSNs
  /// continue from where they were (never reused).
  Status Restart() MOPE_EXCLUDES(mutex_);

  uint64_t next_lsn() MOPE_EXCLUDES(mutex_);

  /// Bytes in the log file plus any not yet written to it.
  Result<uint64_t> size() MOPE_EXCLUDES(mutex_);

  /// Replays the log at `path`: returns every well-formed record with
  /// LSN > `after_lsn`, stopping (not failing) at the first torn record.
  static Result<std::vector<WalRecord>> ReadAll(Env* env,
                                                const std::string& path,
                                                uint64_t after_lsn);

 private:
  Wal(Env* env, std::string path, std::unique_ptr<AppendFile> file,
      uint64_t next_lsn, uint64_t sync_every, obs::MetricsRegistry* metrics,
      obs::Clock* clock);

  Status SyncLocked() MOPE_REQUIRES(mutex_);

  Env* env_;
  const std::string path_;
  mutable Mutex mutex_{lock_rank::kStorageWal};
  std::unique_ptr<AppendFile> file_ MOPE_GUARDED_BY(mutex_);
  std::string pending_ MOPE_GUARDED_BY(mutex_);
  uint64_t next_lsn_ MOPE_GUARDED_BY(mutex_);
  uint64_t unsynced_records_ MOPE_GUARDED_BY(mutex_) = 0;
  const uint64_t sync_every_;

  obs::Clock* clock_;
  obs::Counter* records_;
  obs::Counter* bytes_;
  obs::Counter* syncs_;
  /// Latency of each fsync covering a commit group (`storage.wal.fsync_ns`):
  /// the number an operator watches when group commit is mistuned.
  obs::ExpHistogram* fsync_ns_;
};

}  // namespace mope::storage

#endif  // MOPE_STORAGE_WAL_H_
