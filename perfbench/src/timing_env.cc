#include "timing_env.h"

#include "stats.h"

namespace perfbench {

namespace {

class TimingFile : public cqms::storage::WritableFile {
 public:
  TimingFile(std::unique_ptr<cqms::storage::WritableFile> base,
             TimingEnv::Counters* counters)
      : base_(std::move(base)), counters_(counters) {}

  cqms::Status Append(std::string_view data) override {
    counters_->writes.fetch_add(1, std::memory_order_relaxed);
    counters_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Append(data);
  }
  cqms::Status Flush() override {
    counters_->flushes.fetch_add(1, std::memory_order_relaxed);
    return base_->Flush();
  }
  cqms::Status Sync() override {
    const int64_t start = NowMicros();
    cqms::Status s = base_->Sync();
    counters_->sync_micros.fetch_add(static_cast<uint64_t>(NowMicros() - start),
                                     std::memory_order_relaxed);
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  cqms::Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  cqms::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<cqms::storage::WritableFile> base_;
  TimingEnv::Counters* counters_;
};

}  // namespace

cqms::Status TimingEnv::NewWritableFile(
    const std::string& path, WriteMode mode,
    std::unique_ptr<cqms::storage::WritableFile>* file) {
  std::unique_ptr<cqms::storage::WritableFile> base;
  cqms::Status s = base_->NewWritableFile(path, mode, &base);
  if (!s.ok()) return s;
  *file = std::make_unique<TimingFile>(std::move(base), &counters_);
  return s;
}

}  // namespace perfbench
