#ifndef PERFBENCH_TIMING_ENV_H_
#define PERFBENCH_TIMING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/env.h"

namespace perfbench {

/// A storage::Env that forwards every call to a base Env (the POSIX one
/// by default) and counts what the storage layer asks of the device:
/// writes (WritableFile::Append calls) and their bytes, flushes, file
/// fsyncs with their wall time, and directory syncs. The durable
/// workload passes it through DurabilityOptions::env on every run, so
/// both sides of a comparison pay the same (negligible) counting cost.
class TimingEnv : public cqms::storage::Env {
 public:
  struct Counters {
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> flushes{0};
    std::atomic<uint64_t> syncs{0};
    std::atomic<uint64_t> sync_micros{0};
    std::atomic<uint64_t> dir_syncs{0};
  };

  explicit TimingEnv(cqms::storage::Env* base = cqms::storage::Env::Default())
      : base_(base) {}

  cqms::Status NewWritableFile(
      const std::string& path, WriteMode mode,
      std::unique_ptr<cqms::storage::WritableFile>* file) override;
  cqms::Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<cqms::storage::RandomAccessFile>* file) override {
    return base_->NewRandomAccessFile(path, file);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  cqms::Status GetFileSize(const std::string& path, uint64_t* size) override {
    return base_->GetFileSize(path, size);
  }
  cqms::Status RenameFile(const std::string& from,
                          const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  cqms::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  cqms::Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  cqms::Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  cqms::Status SyncDir(const std::string& dir) override {
    counters_.dir_syncs.fetch_add(1, std::memory_order_relaxed);
    return base_->SyncDir(dir);
  }
  cqms::Status ListDir(const std::string& dir,
                       std::vector<std::string>* names) override {
    return base_->ListDir(dir, names);
  }

  const Counters& counters() const { return counters_; }

 private:
  cqms::storage::Env* base_;
  Counters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_ENV_H_
