#include "storage/storage_engine.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/crc32.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "storage/coding.h"

namespace mope::storage {

namespace {

constexpr char kMetaMagic[8] = {'M', 'O', 'P', 'E', 'M', 'E', 'T', '2'};
/// The paged format's meta: its blob described heap and index pages.
constexpr char kPagedMetaMagic[8] = {'M', 'O', 'P', 'E', 'M', 'E', 'T', '1'};
constexpr size_t kMetaHeaderSize = 8 + 24;  // magic + three u64 fields

obs::MetricsRegistry* OrGlobal(obs::MetricsRegistry* metrics) {
  return metrics != nullptr ? metrics : obs::Registry();
}

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }
std::string MetaPath(const std::string& dir) { return dir + "/storage.meta"; }

struct Meta {
  uint64_t checkpoint_lsn = 0;
  uint64_t next_lsn = 1;
  std::string image;
};

std::string EncodeMeta(uint64_t checkpoint_lsn, uint64_t next_lsn,
                       std::string_view image) {
  std::string out;
  out.reserve(kMetaHeaderSize + image.size() + 4);
  out.append(kMetaMagic, 8);
  char nums[24];
  StoreU64(nums, checkpoint_lsn);
  StoreU64(nums + 8, next_lsn);
  StoreU64(nums + 16, image.size());
  out.append(nums, 24);
  out.append(image);
  char crc[4];
  StoreU32(crc, Crc32(out));
  out.append(crc, 4);
  return out;
}

/// Decodes the file contents held in `meta->image` in place, leaving just
/// the image there: a large checkpoint is never held twice.
Status DecodeMeta(Meta* meta) {
  std::string& bytes = meta->image;
  if (bytes.size() >= 8 &&
      std::memcmp(bytes.data(), kPagedMetaMagic, 8) == 0) {
    return Status::NotSupported(
        "storage.meta: written by the retired paged format (MOPEMET1); "
        "this build reads MOPEMET2 only");
  }
  if (bytes.size() < kMetaHeaderSize + 4 ||
      std::memcmp(bytes.data(), kMetaMagic, 8) != 0) {
    return Status::Corruption("storage.meta: bad magic or truncated");
  }
  const uint32_t stored = LoadU32(bytes.data() + bytes.size() - 4);
  if (stored != Crc32(std::string_view(bytes.data(), bytes.size() - 4))) {
    return Status::Corruption("storage.meta: checksum mismatch");
  }
  const uint64_t image_len = LoadU64(bytes.data() + 24);
  if (image_len != bytes.size() - kMetaHeaderSize - 4) {
    return Status::Corruption("storage.meta: image length mismatch");
  }
  meta->checkpoint_lsn = LoadU64(bytes.data() + 8);
  meta->next_lsn = LoadU64(bytes.data() + 16);
  bytes.resize(bytes.size() - 4);
  bytes.erase(0, kMetaHeaderSize);
  return Status::OK();
}

}  // namespace

StorageEngine::StorageEngine(Env* env, std::string dir,
                             std::unique_ptr<Wal> wal,
                             obs::MetricsRegistry* metrics)
    : env_(env),
      dir_(std::move(dir)),
      wal_(std::move(wal)),
      recoveries_(metrics->GetCounter("storage.engine.recoveries")),
      recovered_records_counter_(
          metrics->GetCounter("storage.engine.recovered_records")),
      checkpoints_(metrics->GetCounter("storage.engine.checkpoints")) {
  // Always zero: no page file or buffer pool exists any more. They stay
  // registered only because perfbench/durable_load.cc reads both by name;
  // drop them at the next change to perfbench/ (ROADMAP, benchmark debt).
  metrics->GetCounter("storage.disk.page_writes");
  metrics->GetCounter("storage.pool.evictions");
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const std::string& dir, const StorageOptions& options) {
  const obs::ScopedSpan open_span("storage.recovery");
  Env* env = options.env != nullptr ? options.env : Env::Posix();
  obs::MetricsRegistry* metrics = OrGlobal(options.metrics);
  MOPE_RETURN_NOT_OK(env->CreateDir(dir));

  Meta meta;
  if (env->FileExists(MetaPath(dir))) {
    MOPE_ASSIGN_OR_RETURN(meta.image, env->ReadFile(MetaPath(dir)));
    MOPE_RETURN_NOT_OK(DecodeMeta(&meta));
  }

  MOPE_ASSIGN_OR_RETURN(
      std::vector<WalRecord> records,
      Wal::ReadAll(env, WalPath(dir), meta.checkpoint_lsn));
  uint64_t next_lsn = meta.next_lsn;
  if (!records.empty()) {
    next_lsn = std::max(next_lsn, records.back().lsn + 1);
  }

  MOPE_ASSIGN_OR_RETURN(
      std::unique_ptr<Wal> wal,
      Wal::Open(env, WalPath(dir), next_lsn, options.wal_sync_every,
                options.metrics, options.clock));
  // A torn tail with no whole record in front of it still counts: only a
  // checkpoint's truncate gets it out of the way of the next append.
  MOPE_ASSIGN_OR_RETURN(uint64_t wal_bytes, wal->size());

  std::unique_ptr<StorageEngine> engine(
      new StorageEngine(env, dir, std::move(wal), metrics));
  engine->image_ = std::move(meta.image);
  engine->crash_recovered_ = wal_bytes > 0;
  engine->recovered_records_ = records.size();
  engine->records_ = std::move(records);
  if (engine->crash_recovered_) {
    engine->recoveries_->Increment();
    engine->recovered_records_counter_->Increment(
        static_cast<int64_t>(engine->recovered_records_));
    // Crash recovery is the event an operator grep'd the old fprintf lines
    // for; it stays info-level. Clean opens log at debug below.
    MOPE_LOG(kInfo, "storage", "wal_replayed")
        .Arg("dir", dir)
        .Arg("records", engine->recovered_records_)
        .Arg("wal_bytes", wal_bytes)
        .Arg("checkpoint_lsn", meta.checkpoint_lsn);
  } else {
    MOPE_LOG(kDebug, "storage", "opened").Arg("dir", dir);
  }
  return engine;
}

Status StorageEngine::Checkpoint(std::string_view image) {
  const obs::ScopedSpan span("storage.checkpoint");
  MOPE_RETURN_NOT_OK(wal_->Sync());
  const uint64_t next_lsn = wal_->next_lsn();
  MOPE_RETURN_NOT_OK(env_->WriteFileAtomic(
      MetaPath(dir_), EncodeMeta(next_lsn - 1, next_lsn, image)));
  MOPE_RETURN_NOT_OK(wal_->Restart());
  checkpoints_->Increment();
  return Status::OK();
}

}  // namespace mope::storage
