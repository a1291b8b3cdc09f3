#include "storage/wal.h"

#include <algorithm>

#include "common/binary_codec.h"
#include "common/frame_codec.h"
#include "obs/metrics.h"
#include "storage/persistence.h"
#include "storage/record_builder.h"

namespace cqms::storage {

namespace {

constexpr std::string_view kWalMagic = "CQMSWAL1";
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderSize = 8 + 4;

std::string WalHeader() {
  std::string header(kWalMagic);
  BinaryWriter w;
  w.PutFixed32(kWalVersion);
  header.append(w.data());
  return header;
}

Status CorruptWal(const std::string& path, const std::string& what) {
  return Status::Corruption("corrupt WAL (" + what + "): " + path);
}

}  // namespace

void EncodeMutation(const Mutation& m, BinaryWriter* w) {
  w->PutU8(static_cast<uint8_t>(m.op));
  switch (m.op) {
    case WalOp::kAppend: {
      const QueryRecord& record = *m.record;
      w->PutU8(record.parse_failed() ? 0 : 1);
      w->PutString(record.text);
      w->PutString(record.user);
      w->PutZigzag(record.timestamp);
      w->PutZigzag(record.session_id);
      w->PutVarint(record.flags);
      w->PutDouble(record.quality);
      w->PutZigzag(record.stats.execution_micros);
      w->PutVarint(record.stats.result_rows);
      w->PutVarint(record.stats.rows_scanned);
      w->PutU8(record.stats.succeeded ? 1 : 0);
      w->PutString(record.stats.error);
      w->PutString(record.stats.plan);
      PutDeltaU64s(w, record.signature.output_rows);
      w->PutU8(record.signature.output_empty_computed ? 1 : 0);
      w->PutVarint(static_cast<uint64_t>(record.id));
      break;
    }
    case WalOp::kRewrite:
      w->PutVarint(static_cast<uint64_t>(m.id));
      w->PutString(m.record->text);
      PutDeltaU64s(w, m.record->signature.output_rows);
      w->PutU8(m.record->signature.output_empty_computed ? 1 : 0);
      break;
    case WalOp::kAnnotate:
      w->PutVarint(static_cast<uint64_t>(m.id));
      w->PutString(m.annotation.author);
      w->PutZigzag(m.annotation.timestamp);
      w->PutString(m.annotation.text);
      w->PutString(m.annotation.fragment);
      break;
    case WalOp::kFlagSet:
    case WalOp::kFlagClear:
      w->PutVarint(static_cast<uint64_t>(m.id));
      w->PutVarint(m.flag);
      break;
    case WalOp::kSetSession:
      w->PutVarint(static_cast<uint64_t>(m.id));
      w->PutZigzag(m.session);
      break;
    case WalOp::kSetQuality:
      w->PutVarint(static_cast<uint64_t>(m.id));
      w->PutDouble(m.quality);
      break;
    case WalOp::kDelete:
      w->PutVarint(static_cast<uint64_t>(m.id));
      break;
    case WalOp::kAddUser:
      w->PutString(m.user);
      w->PutVarint(m.groups.size());
      for (const std::string& g : m.groups) w->PutString(g);
      break;
    case WalOp::kSetVisibility:
      w->PutVarint(static_cast<uint64_t>(m.id));
      w->PutU8(static_cast<uint8_t>(m.visibility));
      break;
    case WalOp::kSyncOutput:
      break;
  }
}

namespace {

/// Decodes one payload (op byte onward) into `m`. Only reads: applying
/// is ApplyMutation's job, so a frame is checked whole before it
/// touches the store.
Status DecodeMutation(BinaryReader* r, Mutation* m, const std::string& path) {
  uint8_t raw_op = r->GetU8();
  m->op = static_cast<WalOp>(raw_op);
  const char* what = nullptr;  // names the payload in error messages
  switch (m->op) {
    case WalOp::kAppend: {
      what = "append payload";
      auto record = std::make_unique<QueryRecord>();
      record->text_parses = r->GetU8() != 0;
      record->text = r->GetString();
      record->user = r->GetString();
      record->timestamp = r->GetZigzag();
      record->session_id = r->GetZigzag();
      record->flags = static_cast<uint32_t>(r->GetVarint());
      record->quality = r->GetDouble();
      record->stats.execution_micros = r->GetZigzag();
      record->stats.result_rows = r->GetVarint();
      record->stats.rows_scanned = r->GetVarint();
      record->stats.succeeded = r->GetU8() != 0;
      record->stats.error = r->GetString();
      record->stats.plan = r->GetString();
      record->signature.output_rows = GetDeltaU64s(r);
      record->signature.output_empty_computed = r->GetU8() != 0;
      record->id = static_cast<QueryId>(r->GetVarint());
      m->id = record->id;
      m->record = record.get();
      m->decoded = std::move(record);
      break;
    }
    case WalOp::kRewrite: {
      what = "rewrite payload";
      auto record = std::make_unique<QueryRecord>();
      m->id = record->id = static_cast<QueryId>(r->GetVarint());
      record->text = r->GetString();
      record->signature.output_rows = GetDeltaU64s(r);
      record->signature.output_empty_computed = r->GetU8() != 0;
      m->record = record.get();
      m->decoded = std::move(record);
      break;
    }
    case WalOp::kAnnotate:
      what = "annotate payload";
      m->id = static_cast<QueryId>(r->GetVarint());
      m->annotation.author = r->GetString();
      m->annotation.timestamp = r->GetZigzag();
      m->annotation.text = r->GetString();
      m->annotation.fragment = r->GetString();
      break;
    case WalOp::kFlagSet:
    case WalOp::kFlagClear:
      what = "flag payload";
      m->id = static_cast<QueryId>(r->GetVarint());
      m->flag = static_cast<QueryFlags>(r->GetVarint());
      break;
    case WalOp::kSetSession:
      what = "session payload";
      m->id = static_cast<QueryId>(r->GetVarint());
      m->session = r->GetZigzag();
      break;
    case WalOp::kSetQuality:
      what = "quality payload";
      m->id = static_cast<QueryId>(r->GetVarint());
      m->quality = r->GetDouble();
      break;
    case WalOp::kDelete:
      what = "delete payload";
      m->id = static_cast<QueryId>(r->GetVarint());
      break;
    case WalOp::kAddUser: {
      what = "adduser payload";
      m->user = r->GetString();
      uint64_t n = r->GetVarint();
      if (r->failed() || n > r->remaining()) return CorruptWal(path, what);
      m->groups.reserve(n);
      for (uint64_t i = 0; i < n; ++i) m->groups.push_back(r->GetString());
      break;
    }
    case WalOp::kSetVisibility: {
      what = "visibility payload";
      m->id = static_cast<QueryId>(r->GetVarint());
      uint8_t vis = r->GetU8();
      if (vis > static_cast<uint8_t>(Visibility::kPublic)) {
        return CorruptWal(path, what);
      }
      m->visibility = static_cast<Visibility>(vis);
      break;
    }
    case WalOp::kSyncOutput:
      break;  // never logged: as unknown as any future tag
  }
  if (what == nullptr) {
    // A tag this build does not know: either corruption that survived
    // the CRC (vanishingly unlikely) or a log written by a newer
    // version. Either way the frame cannot be decoded — refuse with a
    // typed status instead of guessing at its payload.
    return CorruptWal(path,
                      "unknown WAL record type " + std::to_string(raw_op));
  }
  if (r->failed()) return CorruptWal(path, what);
  return Status::Ok();
}

/// Applies a decoded mutation through the store's own mutators.
Status ApplyMutation(Mutation m, QueryStore* store) {
  switch (m.op) {
    case WalOp::kAppend: {
      QueryRecord& logged = *m.decoded;
      QueryId id;
      if (logged.text_parses) {
        // Replaying the tail re-tokenizes — bounded by the checkpoint
        // interval, unlike the snapshot body.
        QueryRecord record = BuildRecordFromText(
            std::move(logged.text), std::move(logged.user), logged.timestamp);
        record.session_id = logged.session_id;
        record.flags = logged.flags;
        record.quality = logged.quality;
        record.stats = std::move(logged.stats);
        // The output summary itself is not logged (refreshable cache),
        // but its signature contribution — the hashes output-similarity
        // ranking reads — is, so ranking stays crash-consistent for
        // WAL-tail records too. RestoreAppend trusts the patched
        // signature instead of refolding the (absent) summary the way
        // Append would.
        record.signature.output_rows =
            std::move(logged.signature.output_rows);
        record.signature.output_empty_computed =
            logged.signature.output_empty_computed;
        id = store->RestoreAppend(std::move(record));
      } else {
        // Original was logged without parsing (text-only profiling level
        // or unparsable text that BuildRecordFromText degraded); Append
        // computes the signature exactly as it did originally. Such
        // records never carry an output summary.
        logged.signature = SimilaritySignature{};
        id = store->Append(std::move(logged));
      }
      if (id != m.id) return Status::Corruption("append id mismatch");
      return Status::Ok();
    }
    case WalOp::kRewrite:
      CQMS_RETURN_IF_ERROR(store->RewriteQueryText(m.id, m.decoded->text));
      // The rewrite preserved the (unpersisted) summary; restore its
      // hash contribution so output-similarity ranking stays
      // crash-consistent across a rewritten tail record.
      return store->RestoreOutputSignature(
          m.id, std::move(m.decoded->signature.output_rows),
          m.decoded->signature.output_empty_computed);
    case WalOp::kAnnotate:
      return store->Annotate(m.id, std::move(m.annotation));
    case WalOp::kFlagSet:
      return store->AddFlag(m.id, m.flag);
    case WalOp::kFlagClear:
      return store->ClearFlag(m.id, m.flag);
    case WalOp::kSetSession:
      return store->SetSession(m.id, m.session);
    case WalOp::kSetQuality:
      return store->SetQuality(m.id, m.quality);
    case WalOp::kDelete:
      // The owner check already passed when the op was logged.
      return store->Delete(m.id, "", /*is_admin=*/true);
    case WalOp::kAddUser:
      store->AddUser(m.user, m.groups);
      return Status::Ok();
    case WalOp::kSetVisibility:
      return store->SetVisibility(m.id, "", m.visibility, /*is_admin=*/true);
    case WalOp::kSyncOutput:
      break;
  }
  return Status::Internal("unreachable WAL op");
}

}  // namespace

Status ApplyWalRecord(BinaryReader* r, QueryStore* store,
                      const std::string& path) {
  Mutation m;
  CQMS_RETURN_IF_ERROR(DecodeMutation(r, &m, path));
  if (!r->AtEnd()) return CorruptWal(path, "trailing payload bytes");
  Status s = ApplyMutation(std::move(m), store);
  if (!s.ok()) return CorruptWal(path, s.message());
  return Status::Ok();
}

Status WalWriter::Open(const std::string& path, bool fsync_each_record,
                       Env* env) {
  Close();
  path_ = path;
  env_ = env != nullptr ? env : Env::Default();
  fsync_each_record_ = fsync_each_record;
  failed_ = false;
  Status s = env_->NewWritableFile(path, Env::WriteMode::kAppend, &file_);
  if (!s.ok()) {
    return Status(s.code(),
                  "cannot open WAL for appending: " + path + " (" +
                      s.message() + ")");
  }
  s = env_->GetFileSize(path, &bytes_);
  if (!s.ok()) {
    Close();
    return Status(s.code(), "cannot size WAL: " + path);
  }
  appended_records_ = 0;
  if (bytes_ == 0) {
    std::string header = WalHeader();
    s = file_->Append(header);
    if (s.ok()) s = file_->Flush();
    if (s.ok() && fsync_each_record_) {
      // Under power-loss guarantees the header — and the directory
      // entry of a freshly created log — must be durable before any
      // append is acknowledged: fsync(2) of the file alone does not
      // persist its name, and a log whose entry vanishes takes every
      // acked record with it.
      s = file_->Sync();
      if (s.ok()) s = env_->SyncDir(DirnameOf(path_));
    }
    if (!s.ok()) {
      Close();
      return Status(s.code(), "cannot write WAL header: " + path + " (" +
                                  s.message() + ")");
    }
    bytes_ = header.size();
  }
  return Status::Ok();
}

Status WalWriter::OpenFresh() {
  Status s = env_->NewWritableFile(path_, Env::WriteMode::kTruncate, &file_);
  if (!s.ok()) {
    // Leave the writer retryable: the next Reset/Rotate tries again.
    failed_ = true;
    return Status(s.code(), "cannot truncate WAL: " + path_);
  }
  std::string header = WalHeader();
  s = file_->Append(header);
  if (s.ok()) s = file_->Flush();
  if (s.ok() && fsync_each_record_) {
    s = file_->Sync();
    if (s.ok()) s = env_->SyncDir(DirnameOf(path_));
  }
  if (!s.ok()) {
    failed_ = true;
    return Status(s.code(),
                  "cannot write WAL header: " + path_ + " (" + s.message() +
                      ")");
  }
  bytes_ = header.size();
  appended_records_ = 0;
  failed_ = false;
  return Status::Ok();
}

Status WalWriter::Reset() {
  if (path_.empty()) return Status::Internal("WAL writer never opened");
  Close();
  return OpenFresh();
}

Status WalWriter::Rotate(const std::string& retired_path) {
  if (path_.empty()) return Status::Internal("WAL writer never opened");
  Close();
  // A retried Rotate after a failed fresh-log open finds the rename
  // already done; skip it rather than fail on the missing source.
  if (env_->FileExists(path_)) {
    Status s = env_->RenameFile(path_, retired_path);
    if (!s.ok()) {
      failed_ = true;
      return s;
    }
  }
  return OpenFresh();
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    (void)file_->Close();
    file_.reset();
  }
}

Status WalWriter::Append(std::string_view payload) {
  if (file_ == nullptr) return Status::Internal("WAL writer not open");
  if (failed_) {
    return Status::IoError("WAL writer failed; awaiting checkpoint reset: " +
                           path_);
  }
  std::string bytes;
  AppendFrame(&bytes, payload);
  Status s = file_->Append(bytes);
  if (s.ok()) s = file_->Flush();
  if (!s.ok()) {
    // A partial frame may have reached the file; roll back to the last
    // good frame boundary so the on-disk prefix stays cleanly framed.
    // (If the rollback fails too, the torn frame stays and replay will
    // stop at it — the same consistent prefix.) Either way the writer
    // latches: the mutation applied in memory but was never logged, so
    // any *later* frame would be inconsistent with the store it
    // replays into (an append frame's expected id, a delete a lost
    // delete should have preceded). Only a checkpoint — which captures
    // the in-memory state wholesale — may reopen the log.
    (void)file_->Truncate(bytes_);
    failed_ = true;
    return Status(s.code(),
                  "WAL append failed: " + path_ + " (" + s.message() + ")");
  }
  if (fsync_each_record_) {
    s = file_->Sync();
    if (!s.ok()) {
      // The caller was promised power-loss durability; an unsynced
      // frame breaks it, and on Linux the error may be consumed by
      // this very call (later fsyncs would lie). Same discipline as a
      // failed write: latch until a checkpoint repairs.
      failed_ = true;
      return Status(s.code(),
                    "WAL fsync failed: " + path_ + " (" + s.message() + ")");
    }
    static obs::Counter* fsyncs = obs::MetricsRegistry::Global().GetCounter(
        "cqms_wal_fsyncs_total");
    fsyncs->Increment();
  }
  bytes_ += bytes.size();
  ++appended_records_;
  static obs::Counter* wal_bytes =
      obs::MetricsRegistry::Global().GetCounter("cqms_wal_bytes_total");
  static obs::Counter* wal_appends =
      obs::MetricsRegistry::Global().GetCounter("cqms_wal_appends_total");
  wal_bytes->Add(bytes.size());
  wal_appends->Increment();
  return Status::Ok();
}

Status ScanWalFrames(
    const std::string& path, Env* env,
    const std::function<bool(uint64_t sequence, std::string_view frame)>& fn,
    WalReplayStats* stats) {
  if (env == nullptr) env = Env::Default();
  WalReplayStats scan;
  if (stats == nullptr) stats = &scan;
  *stats = WalReplayStats{};
  if (!env->FileExists(path)) {
    return Status::Ok();  // no log yet: fresh deployment
  }
  std::string file;
  CQMS_RETURN_IF_ERROR(ReadFileToString(path, &file, env));
  if (file.empty()) return Status::Ok();
  if (file.size() < kHeaderSize) {
    // A crash during the very first header write leaves a short prefix
    // of the header: nothing was ever committed, so recover to empty
    // rather than refusing. Anything else this short is not our file.
    if (WalHeader().compare(0, file.size(), file) == 0) {
      stats->torn_bytes = file.size();
      return Status::Ok();
    }
    return CorruptWal(path, "bad header");
  }
  if (file.compare(0, kWalMagic.size(), kWalMagic) != 0) {
    return CorruptWal(path, "bad header");
  }
  {
    BinaryReader header(std::string_view(file).substr(kWalMagic.size(), 4));
    uint32_t version = header.GetFixed32();
    if (version != kWalVersion) {
      return Status::IoError("unsupported WAL version " +
                             std::to_string(version) + ": " + path);
    }
  }

  std::string_view rest = std::string_view(file).substr(kHeaderSize);
  stats->bytes_valid = kHeaderSize;
  std::string_view payload;
  // Anything but a whole frame — a short header, a short payload, a CRC
  // mismatch — is the torn end of the committed prefix.
  while (ParseFrame(rest, UINT32_MAX, &payload) == FrameParse::kFrame) {
    BinaryReader r(payload);
    uint64_t sequence = r.GetVarint();
    if (r.failed()) return CorruptWal(path, "missing sequence");
    if (!fn(sequence, payload)) break;
    stats->max_sequence = std::max(stats->max_sequence, sequence);
    if (stats->min_sequence == 0 || sequence < stats->min_sequence) {
      stats->min_sequence = sequence;
    }
    const size_t frame_bytes = kFrameHeaderBytes + payload.size();
    rest.remove_prefix(frame_bytes);
    stats->bytes_valid += frame_bytes;
  }
  stats->torn_bytes = file.size() - stats->bytes_valid;
  return Status::Ok();
}

Status ReplayWal(const std::string& path, QueryStore* store,
                 WalReplayStats* stats, uint64_t min_sequence, Env* env) {
  Status apply;
  CQMS_RETURN_IF_ERROR(ScanWalFrames(
      path, env,
      [&](uint64_t sequence, std::string_view frame) {
        if (sequence <= min_sequence) {
          // The snapshot already contains this mutation: a crash landed
          // between the snapshot write and the WAL truncation. CRC
          // already vouched for the frame; don't re-apply it.
          ++stats->records_skipped;
          return true;
        }
        BinaryReader r(frame);
        r.GetVarint();  // the sequence, decoded by the scan
        apply = ApplyWalRecord(&r, store, path);
        if (!apply.ok()) return false;
        ++stats->records_applied;
        return true;
      },
      stats));
  return apply;
}

}  // namespace cqms::storage
