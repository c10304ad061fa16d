#include "storage/wal.h"

#include <utility>

#include "common/crc32.h"
#include "obs/trace.h"
#include "storage/coding.h"

namespace mope::storage {

namespace {

constexpr size_t kHeaderSize = 17;  // crc(4) + len(4) + lsn(8) + type(1)

obs::MetricsRegistry* OrGlobal(obs::MetricsRegistry* metrics) {
  return metrics != nullptr ? metrics : obs::Registry();
}

}  // namespace

Wal::Wal(Env* env, std::string path, std::unique_ptr<AppendFile> file,
         uint64_t next_lsn, uint64_t sync_every, obs::MetricsRegistry* metrics,
         obs::Clock* clock)
    : env_(env),
      path_(std::move(path)),
      file_(std::move(file)),
      next_lsn_(next_lsn),
      sync_every_(sync_every),
      clock_(clock != nullptr ? clock : obs::SystemClock()),
      records_(OrGlobal(metrics)->GetCounter("storage.wal.records")),
      bytes_(OrGlobal(metrics)->GetCounter("storage.wal.bytes")),
      syncs_(OrGlobal(metrics)->GetCounter("storage.wal.syncs")),
      fsync_ns_(OrGlobal(metrics)->GetHistogram("storage.wal.fsync_ns")) {}

Result<std::unique_ptr<Wal>> Wal::Open(Env* env, const std::string& path,
                                       uint64_t next_lsn, uint64_t sync_every,
                                       obs::MetricsRegistry* metrics,
                                       obs::Clock* clock) {
  MOPE_ASSIGN_OR_RETURN(std::unique_ptr<AppendFile> file,
                        env->OpenAppend(path, /*truncate=*/false));
  return std::unique_ptr<Wal>(new Wal(env, path, std::move(file), next_lsn,
                                      sync_every, metrics, clock));
}

Result<uint64_t> Wal::Append(WalRecordType type, std::string_view payload) {
  const obs::ScopedSpan span("storage.wal.append");
  MutexLock lock(&mutex_);
  const uint64_t lsn = next_lsn_++;
  char header[kHeaderSize];
  StoreU32(header + 4, static_cast<uint32_t>(payload.size()));
  StoreU64(header + 8, lsn);
  header[16] = static_cast<char>(type);
  uint32_t crc = Crc32(std::string_view(header + 4, kHeaderSize - 4));
  crc = Crc32Continue(crc, payload);
  StoreU32(header, crc);
  pending_.append(header, kHeaderSize);
  pending_.append(payload);
  records_->Increment();
  bytes_->Increment(static_cast<int64_t>(kHeaderSize + payload.size()));
  ++unsynced_records_;
  if (sync_every_ != 0 && unsynced_records_ >= sync_every_) {
    MOPE_RETURN_NOT_OK(SyncLocked());
  }
  return lsn;
}

Status Wal::SyncLocked() {
  if (!pending_.empty()) {
    MOPE_RETURN_NOT_OK(file_->Append(pending_));
    pending_.clear();
  }
  if (unsynced_records_ == 0) return Status::OK();
  {
    // The fsync is the commit point and the dominant cost of a write path;
    // it gets both a span (visible in slow-query traces) and a latency
    // histogram (visible to a scraper as fsync_ns quantiles).
    const obs::ScopedSpan span("storage.wal.sync");
    const uint64_t start_ns = clock_->NowNanos();
    MOPE_RETURN_NOT_OK(file_->Sync());
    fsync_ns_->Observe(clock_->NowNanos() - start_ns);
  }
  syncs_->Increment();
  unsynced_records_ = 0;
  return Status::OK();
}

Status Wal::Sync() {
  MutexLock lock(&mutex_);
  return SyncLocked();
}

Status Wal::Restart() {
  MutexLock lock(&mutex_);
  pending_.clear();
  unsynced_records_ = 0;
  MOPE_ASSIGN_OR_RETURN(file_, env_->OpenAppend(path_, /*truncate=*/true));
  // Make the truncation itself durable: without this fsync a crash can
  // resurrect the pre-checkpoint log contents, and only the checkpoint-LSN
  // guard in ReadAll would save us. Belt and suspenders. It is a real WAL
  // fsync on the commit path of every checkpoint, so it feeds the same
  // span and latency histogram as record syncs.
  {
    const obs::ScopedSpan span("storage.wal.sync");
    const uint64_t start_ns = clock_->NowNanos();
    MOPE_RETURN_NOT_OK(file_->Sync());
    fsync_ns_->Observe(clock_->NowNanos() - start_ns);
  }
  return Status::OK();
}

uint64_t Wal::next_lsn() {
  MutexLock lock(&mutex_);
  return next_lsn_;
}

Result<uint64_t> Wal::size() {
  MutexLock lock(&mutex_);
  MOPE_ASSIGN_OR_RETURN(uint64_t written, file_->Size());
  return written + pending_.size();
}

Result<std::vector<WalRecord>> Wal::ReadAll(Env* env, const std::string& path,
                                            uint64_t after_lsn) {
  std::vector<WalRecord> out;
  if (!env->FileExists(path)) return out;
  MOPE_ASSIGN_OR_RETURN(std::string data, env->ReadFile(path));
  size_t pos = 0;
  while (data.size() - pos >= kHeaderSize) {
    const char* p = data.data() + pos;
    const uint32_t stored_crc = LoadU32(p);
    const uint32_t len = LoadU32(p + 4);
    if (data.size() - pos - kHeaderSize < len) break;  // torn tail
    uint32_t crc = Crc32(std::string_view(p + 4, kHeaderSize - 4));
    crc = Crc32Continue(crc, std::string_view(p + kHeaderSize, len));
    if (crc != stored_crc) break;  // torn tail (or bit rot — either way stop)
    const uint64_t lsn = LoadU64(p + 8);
    if (lsn > after_lsn) {
      WalRecord rec;
      rec.lsn = lsn;
      rec.type = static_cast<WalRecordType>(p[16]);
      rec.payload.assign(p + kHeaderSize, len);
      out.push_back(std::move(rec));
    }
    pos += kHeaderSize + len;
  }
  return out;
}

}  // namespace mope::storage
