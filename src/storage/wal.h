#ifndef CQMS_STORAGE_WAL_H_
#define CQMS_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/binary_codec.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/mutation.h"
#include "storage/query_store.h"

namespace cqms::storage {

/// Appends `mutation`'s WAL payload — the op byte, then that op's
/// fields (docs/persistence.md) — to `w`. Called for logged ops only;
/// WalOp::kSyncOutput is never framed.
void EncodeMutation(const Mutation& mutation, BinaryWriter* w);

/// Appends framed binary records to the log file. Each record is one
/// common/frame_codec frame (fixed32 length, fixed32 CRC32, payload),
/// after an 8-byte magic + version header, and is flushed to the OS on
/// every append (optionally fsync'd), so a record is recoverable the
/// moment the mutation returns. A crash mid-frame leaves a torn tail that
/// ReplayWal detects by length/CRC and discards.
///
/// Write-failure discipline: after any failed append (or failed
/// per-record fsync) the writer latches and refuses further appends
/// until Reset() rewrites the log. The mutation that failed to log
/// still applied in memory, so any later frame would be inconsistent
/// with the store replay reconstructs (stranded behind a lost append's
/// id, or re-animating state a lost delete removed); only a checkpoint
/// — which snapshots the in-memory state wholesale and resets the log
/// — may reopen it, and DurableStore forces one while a WAL error is
/// latched. A partial frame is also rolled back to the last good
/// boundary so the on-disk prefix stays cleanly framed.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter() { Close(); }
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending through `env` (null = Env::Default()),
  /// writing the header first when the file is new or empty. Callers
  /// replay (and truncate) the log before opening a writer on it. With
  /// per-record fsync the fresh header — and the log's very directory
  /// entry — are synced before returning, so the first acknowledged
  /// append cannot outlive the file it was written to.
  Status Open(const std::string& path, bool fsync_each_record = false,
              Env* env = nullptr);

  /// Truncates the log back to a fresh header — the recovery path out
  /// of the latched failed state; safe to retry after a failure (a
  /// transient open error does not wedge the writer).
  Status Reset();

  /// The checkpoint step after a successful snapshot publish: the
  /// current log is renamed to `retired_path` (replacing the previous
  /// generation) and a fresh log started. Keeping one retired
  /// generation lets recovery fall back to the previous snapshot plus
  /// a longer replay when the newest snapshot turns out corrupt. Like
  /// Reset, safe to retry after a failure.
  Status Rotate(const std::string& retired_path);

  void Close();
  bool is_open() const { return file_ != nullptr; }

  Status Append(std::string_view payload);

  /// Current log size in bytes (header included) and records appended
  /// since Open/Reset — the checkpoint-policy inputs.
  uint64_t bytes() const { return bytes_; }
  uint64_t appended_records() const { return appended_records_; }

 private:
  /// Starts a fresh truncated log with a header at path_ (Reset and the
  /// second half of Rotate).
  Status OpenFresh();

  std::string path_;
  Env* env_ = nullptr;
  std::unique_ptr<WritableFile> file_;
  bool fsync_each_record_ = false;
  /// Latched when a failed append could not be rolled back to a frame
  /// boundary; cleared by Open/Reset.
  bool failed_ = false;
  uint64_t bytes_ = 0;
  uint64_t appended_records_ = 0;
};

struct WalReplayStats {
  uint64_t records_applied = 0;
  /// Intact frames whose sequence number the snapshot already covers
  /// (a crash landed between snapshot write and WAL truncation).
  uint64_t records_skipped = 0;
  /// Highest sequence number seen in any intact frame (applied or
  /// skipped); 0 for an empty log.
  uint64_t max_sequence = 0;
  /// Lowest sequence number seen in any intact frame; 0 for an empty
  /// log. Retention bookkeeping uses it to describe retired segments.
  uint64_t min_sequence = 0;
  /// Header plus every intact frame — the offset a torn log should be
  /// truncated to.
  uint64_t bytes_valid = 0;
  /// Trailing bytes discarded as a torn write (0 for a clean log).
  uint64_t torn_bytes = 0;
};

/// Replays every intact record of the log at `path` into `store`, in
/// order. Each frame's payload begins with a varint sequence number
/// (assigned by DurableStore, monotonic across checkpoints); frames
/// with sequence <= `min_sequence` — mutations the loaded snapshot
/// already contains, left behind by a crash between snapshot write and
/// WAL truncation — are counted but not re-applied, which makes the
/// snapshot+replay pair idempotent. A torn final frame (truncated or
/// failing its CRC) marks the end of the committed prefix: it and
/// anything after it are reported in `torn_bytes` and not applied. An
/// intact frame that fails to decode or apply is real corruption —
/// including a record-type tag this build does not know, which a newer
/// writer could have produced — and fails the replay with kCorruption.
/// A missing file replays zero records successfully (fresh deployment).
/// Built on ScanWalFrames.
Status ReplayWal(const std::string& path, QueryStore* store,
                 WalReplayStats* stats, uint64_t min_sequence = 0,
                 Env* env = nullptr);

/// Decodes one Mutation from the rest of `r`, demands that it consumes
/// the payload exactly, then applies it to `store`. `r` is positioned
/// just past the varint sequence number (i.e. at the op byte). `path`
/// labels error messages. Any failure — a short or overlong payload,
/// an unknown op tag, a mutation the store refuses — is kCorruption.
/// The one apply path of ReplayWal and the replication follower, which
/// applies frames shipped off the primary's live WAL.
Status ApplyWalRecord(BinaryReader* r, QueryStore* store,
                      const std::string& path);

/// Iterates the intact frames of the log at `path` without applying
/// them, calling `fn(sequence, frame)` in file order where `frame` is
/// the full frame payload (varint sequence included) exactly as
/// WalWriter::Append framed it. Stops early when `fn` returns false. A
/// torn tail (a short header, or a final frame that is truncated or
/// fails its CRC) ends the scan; a missing file scans zero frames.
/// A foreign header is kCorruption, an unknown version kIoError.
/// `stats` (optional) receives the scan-level fields of
/// WalReplayStats: sequence range, bytes_valid and torn_bytes. Used
/// by ReplayWal and by the WAL shipper to stream catch-up frames to a
/// subscribing follower.
Status ScanWalFrames(
    const std::string& path, Env* env,
    const std::function<bool(uint64_t sequence, std::string_view frame)>& fn,
    WalReplayStats* stats = nullptr);

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_WAL_H_
