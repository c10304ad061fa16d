#ifndef MOPE_PERFBENCH_SEAMS_H_
#define MOPE_PERFBENCH_SEAMS_H_

/// \file seams.h
/// Wrappers the benchmark installs at the library's public seams to time
/// and count what crosses them, without any span or counter inside src/:
///   - proxy::ServerConnection (MopeSystem::set_connection_factory),
///   - net::Transport (RemoteOptions::transport_factory),
///   - storage::Env (DurableCatalog::Options::env).
/// Each wrapper adds into a plain accumulator owned by one thread; a null
/// clock turns timing off and leaves only the counts.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "net/transport.h"
#include "obs/clock.h"
#include "proxy/connection.h"
#include "storage/env.h"

namespace mope::perfbench {

/// Times a call when `clock` is set.
class ScopedTimer {
 public:
  ScopedTimer(obs::Clock* clock, uint64_t* ns_total)
      : clock_(clock), ns_total_(ns_total),
        start_ns_(clock != nullptr ? clock->NowNanos() : 0) {}
  ~ScopedTimer() {
    if (clock_ != nullptr) *ns_total_ += clock_->NowNanos() - start_ns_;
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  obs::Clock* clock_;
  uint64_t* ns_total_;
  uint64_t start_ns_;
};

/// Byte stream wrapper: adds the time blocked in Read/Write of the inner
/// transport to `*ns`.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(std::unique_ptr<net::Transport> inner, uint64_t* ns,
                 obs::Clock* clock)
      : inner_(std::move(inner)), ns_(ns), clock_(clock) {}

  Result<size_t> Read(char* buf, size_t max) override {
    const ScopedTimer timer(clock_, ns_);
    return inner_->Read(buf, max);
  }
  Status Write(const char* data, size_t n) override {
    const ScopedTimer timer(clock_, ns_);
    return inner_->Write(data, n);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  uint64_t* ns_;
  obs::Clock* clock_;
};

/// Proxy-side connection wrapper: adds the time of every range batch to
/// `*ns` and keeps the batches so the benchmark can replay them directly on
/// the engine.
class TimedConnection final : public proxy::ServerConnection {
 public:
  TimedConnection(std::unique_ptr<proxy::ServerConnection> inner,
                  uint64_t* ns, obs::Clock* clock,
                  std::vector<std::vector<ModularInterval>>* batches)
      : inner_(std::move(inner)), ns_(ns), clock_(clock), batches_(batches) {}

  Result<std::vector<std::pair<engine::RowId, engine::Row>>> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    if (batches_ != nullptr) batches_->push_back(ranges);
    const ScopedTimer timer(clock_, ns_);
    return inner_->ExecuteRangeBatch(table, column, ranges);
  }
  Result<engine::Schema> GetSchema(const std::string& table) override {
    return inner_->GetSchema(table);
  }
  Result<uint64_t> CountRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    const ScopedTimer timer(clock_, ns_);
    return inner_->CountRangeBatch(table, column, ranges);
  }
  Result<std::vector<std::pair<std::string, uint64_t>>> FetchServerStats()
      override {
    return inner_->FetchServerStats();
  }

 private:
  std::unique_ptr<proxy::ServerConnection> inner_;
  uint64_t* ns_;
  obs::Clock* clock_;
  std::vector<std::vector<ModularInterval>>* batches_;
};

/// What crossed the storage::Env seam.
struct EnvAccount {
  uint64_t write_bytes = 0;  ///< Write, Append and WriteFileAtomic bytes.
  uint64_t write_ns = 0;
  uint64_t read_bytes = 0;   ///< Random-access and whole-file reads.
  uint64_t read_ns = 0;
  uint64_t syncs = 0;        ///< Sync calls on any file.
  uint64_t sync_ns = 0;
};

/// storage::Env wrapper over another Env (the POSIX one in the benchmark):
/// counts bytes and syncs, and times them when a clock is set. Single
/// threaded, like the storage layer's own callers.
class CountingEnv final : public storage::Env {
 public:
  CountingEnv(storage::Env* base, EnvAccount* account, obs::Clock* clock)
      : base_(base), account_(account), clock_(clock) {}

  Result<std::unique_ptr<storage::RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  Result<std::unique_ptr<storage::AppendFile>> OpenAppend(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Status WriteFileAtomic(const std::string& path,
                         std::string_view contents) override;
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }

 private:
  storage::Env* base_;
  EnvAccount* account_;
  obs::Clock* clock_;
};

}  // namespace mope::perfbench

#endif  // MOPE_PERFBENCH_SEAMS_H_
