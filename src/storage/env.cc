#include "storage/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace mope::storage {

namespace {

std::string Errno(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

/// Directory part of `path` ("" -> "."), for the post-rename directory sync.
std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// ---------------------------------------------------------------------------
// POSIX implementation.
// ---------------------------------------------------------------------------

class PosixAppendFile : public AppendFile {
 public:
  PosixAppendFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixAppendFile() override { ::close(fd_); }

  Status Append(std::string_view data) override {
    size_t done = 0;
    while (done < data.size()) {
      const ssize_t put =
          ::write(fd_, data.data() + done, data.size() - done);
      if (put < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(Errno("write", path_));
      }
      done += static_cast<size_t>(put);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return Status::Internal(Errno("fsync", path_));
    return Status::OK();
  }

  Result<uint64_t> Size() override {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) return Status::Internal(Errno("fstat", path_));
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<AppendFile>> OpenAppend(const std::string& path,
                                                 bool truncate) override {
    const int flags =
        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC | (truncate ? O_TRUNC : 0);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return Status::Internal(Errno("open", path));
    return std::unique_ptr<AppendFile>(new PosixAppendFile(fd, path));
  }

  Result<std::string> ReadFile(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("no file '" + path + "'");
      return Status::Internal(Errno("open", path));
    }
    std::string out;
    char buf[1 << 16];
    for (;;) {
      const ssize_t got = ::read(fd, buf, sizeof(buf));
      if (got < 0) {
        if (errno == EINTR) continue;
        const Status st = Status::Internal(Errno("read", path));
        ::close(fd);
        return st;
      }
      if (got == 0) break;
      out.append(buf, static_cast<size_t>(got));
    }
    ::close(fd);
    return out;
  }

  Status WriteFileAtomic(const std::string& path,
                         std::string_view contents) override {
    const std::string tmp = path + ".tmp";
    {
      const int fd =
          ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
      if (fd < 0) return Status::Internal(Errno("open", tmp));
      size_t done = 0;
      while (done < contents.size()) {
        const ssize_t put =
            ::write(fd, contents.data() + done, contents.size() - done);
        if (put < 0) {
          if (errno == EINTR) continue;
          const Status st = Status::Internal(Errno("write", tmp));
          ::close(fd);
          ::unlink(tmp.c_str());
          return st;
        }
        done += static_cast<size_t>(put);
      }
      if (::fsync(fd) != 0) {
        const Status st = Status::Internal(Errno("fsync", tmp));
        ::close(fd);
        ::unlink(tmp.c_str());
        return st;
      }
      ::close(fd);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      const Status st = Status::Internal(Errno("rename", tmp));
      ::unlink(tmp.c_str());
      return st;
    }
    // The rename itself must survive a crash: sync the directory entry.
    const std::string dir = DirOf(path);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
    if (dfd >= 0) {
      const int rc = ::fsync(dfd);
      ::close(dfd);
      if (rc != 0) return Status::Internal(Errno("fsync dir", dir));
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::Internal(Errno("unlink", path));
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal(Errno("mkdir", path));
    }
    return Status::OK();
  }
};

}  // namespace

Env* Env::Posix() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

// ---------------------------------------------------------------------------
// In-memory implementation.
// ---------------------------------------------------------------------------

/// The env owns the FileState map; a handle keeps its file's state alive,
/// so a removed file stays usable through open handles, POSIX-style.
class InMemAppendFile : public AppendFile {
 public:
  InMemAppendFile(std::shared_ptr<InMemEnv::FileState> state, InMemEnv* env)
      : state_(std::move(state)), env_(env) {}

  Status Append(std::string_view data) override {
    state_->data.append(data);
    return Status::OK();
  }

  Status Sync() override {
    state_->synced_data = state_->data;
    ++env_->sync_count_;
    return Status::OK();
  }

  Result<uint64_t> Size() override { return state_->data.size(); }

 private:
  std::shared_ptr<InMemEnv::FileState> state_;
  InMemEnv* env_;
};

Result<std::unique_ptr<AppendFile>> InMemEnv::OpenAppend(
    const std::string& path, bool truncate) {
  auto& state = files_[path];
  if (state == nullptr) state = std::make_shared<FileState>();
  // Truncation is a data op like any other: not durable until a Sync. A
  // crash between truncate and sync brings the old contents back, which is
  // exactly the case the checkpoint-LSN guard in recovery must handle.
  if (truncate) state->data.clear();
  return std::unique_ptr<AppendFile>(new InMemAppendFile(state, this));
}

Result<std::string> InMemEnv::ReadFile(const std::string& path) {
  const auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file '" + path + "'");
  return it->second->data;
}

Status InMemEnv::WriteFileAtomic(const std::string& path,
                                 std::string_view contents) {
  // Modeled as journaled: rename + dir fsync make the replacement atomic
  // and durable, so both current and synced state flip together.
  auto& state = files_[path];
  if (state == nullptr) state = std::make_shared<FileState>();
  state->data.assign(contents);
  state->synced_data.assign(contents);
  ++sync_count_;
  return Status::OK();
}

bool InMemEnv::FileExists(const std::string& path) {
  return files_.contains(path);
}

Status InMemEnv::RemoveFile(const std::string& path) {
  files_.erase(path);
  return Status::OK();
}

Status InMemEnv::CreateDir(const std::string& /*path*/) {
  return Status::OK();
}

void InMemEnv::SimulateCrash() {
  for (auto& [path, state] : files_) {
    state->data = state->synced_data;
  }
}

// ---------------------------------------------------------------------------
// Fault-injecting implementation.
// ---------------------------------------------------------------------------

Result<size_t> FaultyEnv::AdmitWrite(size_t n) {
  if (dead_) return Status::Internal("injected: disk dead after fault");
  if (faults_.fail_after_writes >= 0 &&
      writes_issued_ >= faults_.fail_after_writes) {
    dead_ = true;
    if (faults_.torn) {
      return static_cast<size_t>(static_cast<double>(n) *
                                 faults_.torn_fraction);
    }
    return Status::Internal("injected: write failure");
  }
  ++writes_issued_;
  return n;
}

Status FaultyEnv::AdmitSync() {
  if (dead_) return Status::Internal("injected: disk dead after fault");
  if (faults_.fail_sync) return Status::Internal("injected: fsync failure");
  return Status::OK();
}

class FaultyAppendFile : public AppendFile {
 public:
  FaultyAppendFile(std::unique_ptr<AppendFile> base, FaultyEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Append(std::string_view data) override {
    MOPE_ASSIGN_OR_RETURN(size_t admitted, env_->AdmitWrite(data.size()));
    if (admitted >= data.size()) return base_->Append(data);
    MOPE_RETURN_NOT_OK(base_->Append(data.substr(0, admitted)));
    return Status::Internal("injected: torn append");
  }

  Status Sync() override {
    MOPE_RETURN_NOT_OK(env_->AdmitSync());
    return base_->Sync();
  }

  Result<uint64_t> Size() override { return base_->Size(); }

 private:
  std::unique_ptr<AppendFile> base_;
  FaultyEnv* env_;
};

Result<std::unique_ptr<AppendFile>> FaultyEnv::OpenAppend(
    const std::string& path, bool truncate) {
  MOPE_ASSIGN_OR_RETURN(std::unique_ptr<AppendFile> base,
                        base_->OpenAppend(path, truncate));
  return std::unique_ptr<AppendFile>(
      new FaultyAppendFile(std::move(base), this));
}

Result<std::string> FaultyEnv::ReadFile(const std::string& path) {
  return base_->ReadFile(path);
}

Status FaultyEnv::WriteFileAtomic(const std::string& path,
                                  std::string_view contents) {
  // One logical write. On an injected fault nothing reaches the base env:
  // that is the contract of atomic replace — a failed attempt leaves the
  // previous file untouched (the torn bytes would have hit the temp file).
  MOPE_ASSIGN_OR_RETURN(size_t admitted, AdmitWrite(contents.size()));
  if (admitted < contents.size()) {
    return Status::Internal("injected: crash during atomic write");
  }
  return base_->WriteFileAtomic(path, contents);
}

bool FaultyEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultyEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

Status FaultyEnv::CreateDir(const std::string& path) {
  return base_->CreateDir(path);
}

}  // namespace mope::storage
