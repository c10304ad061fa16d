#include "seams.h"

namespace mope::perfbench {

namespace {

class CountingRandomAccessFile final : public storage::RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<storage::RandomAccessFile> inner,
                           EnvAccount* account, obs::Clock* clock)
      : inner_(std::move(inner)), account_(account), clock_(clock) {}

  Status Read(uint64_t offset, size_t n, std::string* out) override {
    account_->read_bytes += n;
    const ScopedTimer timer(clock_, &account_->read_ns);
    return inner_->Read(offset, n, out);
  }
  Status Write(uint64_t offset, std::string_view data) override {
    account_->write_bytes += data.size();
    const ScopedTimer timer(clock_, &account_->write_ns);
    return inner_->Write(offset, data);
  }
  Status Sync() override {
    ++account_->syncs;
    const ScopedTimer timer(clock_, &account_->sync_ns);
    return inner_->Sync();
  }
  Result<uint64_t> Size() override { return inner_->Size(); }

 private:
  std::unique_ptr<storage::RandomAccessFile> inner_;
  EnvAccount* account_;
  obs::Clock* clock_;
};

class CountingAppendFile final : public storage::AppendFile {
 public:
  CountingAppendFile(std::unique_ptr<storage::AppendFile> inner,
                     EnvAccount* account, obs::Clock* clock)
      : inner_(std::move(inner)), account_(account), clock_(clock) {}

  Status Append(std::string_view data) override {
    account_->write_bytes += data.size();
    const ScopedTimer timer(clock_, &account_->write_ns);
    return inner_->Append(data);
  }
  Status Sync() override {
    ++account_->syncs;
    const ScopedTimer timer(clock_, &account_->sync_ns);
    return inner_->Sync();
  }
  Result<uint64_t> Size() override { return inner_->Size(); }

 private:
  std::unique_ptr<storage::AppendFile> inner_;
  EnvAccount* account_;
  obs::Clock* clock_;
};

}  // namespace

Result<std::unique_ptr<storage::RandomAccessFile>>
CountingEnv::OpenRandomAccess(const std::string& path) {
  MOPE_ASSIGN_OR_RETURN(std::unique_ptr<storage::RandomAccessFile> file,
                        base_->OpenRandomAccess(path));
  return std::unique_ptr<storage::RandomAccessFile>(
      std::make_unique<CountingRandomAccessFile>(std::move(file), account_,
                                                 clock_));
}

Result<std::unique_ptr<storage::AppendFile>> CountingEnv::OpenAppend(
    const std::string& path, bool truncate) {
  MOPE_ASSIGN_OR_RETURN(std::unique_ptr<storage::AppendFile> file,
                        base_->OpenAppend(path, truncate));
  return std::unique_ptr<storage::AppendFile>(
      std::make_unique<CountingAppendFile>(std::move(file), account_, clock_));
}

Result<std::string> CountingEnv::ReadFile(const std::string& path) {
  const ScopedTimer timer(clock_, &account_->read_ns);
  auto contents = base_->ReadFile(path);
  if (contents.ok()) account_->read_bytes += contents->size();
  return contents;
}

Status CountingEnv::WriteFileAtomic(const std::string& path,
                                    std::string_view contents) {
  account_->write_bytes += contents.size();
  const ScopedTimer timer(clock_, &account_->write_ns);
  return base_->WriteFileAtomic(path, contents);
}

}  // namespace mope::perfbench
