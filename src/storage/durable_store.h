#ifndef CQMS_STORAGE_DURABLE_STORE_H_
#define CQMS_STORAGE_DURABLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/env.h"
#include "storage/mutation.h"
#include "storage/query_store.h"
#include "storage/wal.h"

namespace cqms::storage {

struct DurabilityOptions {
  /// MaybeCheckpoint() rewrites the snapshot once the WAL grows past
  /// either threshold (bytes, or records since the last checkpoint /
  /// open). Crossing neither leaves the WAL accumulating — recovery
  /// stays correct, just replays more.
  uint64_t checkpoint_wal_bytes = 4ull << 20;
  uint64_t checkpoint_wal_records = 10000;
  /// fsync(2) after every WAL record. Off by default: the library's own
  /// tests and benches don't need power-loss guarantees, and a flush
  /// already survives the process dying.
  bool fsync_each_record = false;
  /// Filesystem all I/O goes through; null = Env::Default() (POSIX).
  /// Tests inject a FaultInjectingEnv (fault_env.h) here to exercise
  /// crash and error paths deterministically.
  Env* env = nullptr;
  /// After a due checkpoint fails, MaybeCheckpoint skips the next
  /// min(2^(failures-1), cap) calls before retrying, so a persistently
  /// failing disk is not hammered with a full snapshot encode every
  /// maintenance cycle. 0 disables the backoff (every call retries).
  uint32_t checkpoint_backoff_cap = 32;
  /// Caps on retired WAL segments kept for replication catch-up (see
  /// SetShippingHook): total bytes and segment count. A follower that
  /// falls behind the retained window re-bootstraps from a snapshot
  /// stream instead of holding the primary's disk hostage.
  uint64_t repl_backlog_max_bytes = 256ull << 20;
  uint32_t repl_backlog_max_segments = 8;
};

/// Lets a replication shipper tail the WAL without a second disk read.
/// Both methods are called on the store's writer thread; OnWalFrame must
/// be cheap (hand the frame to another thread, don't write sockets).
class WalShippingHook {
 public:
  virtual ~WalShippingHook() = default;
  /// One durably appended WAL frame payload (varint sequence included),
  /// exactly the bytes ReplayWal would see.
  virtual void OnWalFrame(uint64_t sequence, std::string_view frame) = 0;
  /// Lowest sequence any registered follower still needs (min acked
  /// across followers, plus one); UINT64_MAX when no follower is
  /// registered. Checkpoints drop retired segments below this.
  virtual uint64_t MinRequiredSequence() = 0;
};

/// One retired WAL generation retained for follower catch-up.
struct WalSegmentInfo {
  std::string path;
  uint64_t min_sequence = 0;  ///< First frame's sequence (min > max: empty).
  uint64_t max_sequence = 0;  ///< Last frame's sequence.
  uint64_t bytes = 0;
};

/// Crash-safe persistence for one QueryStore: binary snapshot v2 plus a
/// write-ahead log of every mutation since that snapshot.
///
///   DurableStore durable(&store, dir);
///   CQMS_RETURN_IF_ERROR(durable.Open());   // restore + start logging
///   ... any mutations through the store's normal API ...
///   durable.Checkpoint();                   // fresh snapshot, WAL rotated
///
/// Open() bulk-loads `<dir>/snapshot.cqms` (v2 binary, or a legacy v1
/// text snapshot — the migration path), replays the committed prefix of
/// the retired and active WALs, truncates any torn tail, then registers
/// itself as the store's mutation listener so every subsequent Append /
/// rewrite / annotation / flag / quality / delete / ACL change is framed
/// into the WAL before control returns to the caller.
///
/// Checkpoint() keeps one previous generation alive: the new snapshot
/// is published atomically while the old one is renamed to
/// `snapshot.cqms.1`, and the WAL is rotated to `wal.log.1` instead of
/// truncated. If the newest snapshot is later found corrupt (CRC), Open
/// falls back to the previous generation and replays both logs — the
/// monotonic sequence stamps make the longer replay idempotent — so a
/// single bad sector costs nothing. Stale `.tmp` files from interrupted
/// saves are swept on Open.
///
/// Single-threaded like QueryStore itself. The store must outlive the
/// DurableStore; destruction detaches the listener.
class DurableStore : public StoreListener {
 public:
  /// `dir` is created on Open() when missing.
  DurableStore(QueryStore* store, std::string dir,
               DurabilityOptions options = {});
  ~DurableStore() override;

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Restores `store` — which must be pristine: no records and no ACL
  /// mutations, or pre-listener state would silently evaporate at the
  /// next recovery — from disk and attaches the WAL. Returns the store
  /// to the exact committed state of the last run: snapshot + WAL-tail
  /// = crash recovery.
  Status Open();

  /// Writes a fresh v2 snapshot (atomic, retaining the previous
  /// generation) and rotates the WAL.
  Status Checkpoint();

  /// Checkpoint() iff the WAL crossed the configured thresholds or a
  /// WAL error is latched (checkpointing repairs it). `checkpointed`
  /// (optional) reports whether a checkpoint actually ran. After a
  /// failure, retries are paced by the capped exponential backoff
  /// (see DurabilityOptions); a backed-off call returns the last
  /// checkpoint error so operators still see the condition.
  Status MaybeCheckpoint(bool* checkpointed = nullptr);

  /// Stats of the active-log replay performed by Open() (how much tail
  /// was recovered, whether a torn write was discarded).
  const WalReplayStats& replay_stats() const { return replay_stats_; }

  uint64_t wal_bytes() const { return wal_.bytes(); }
  uint64_t wal_records() const {
    return replayed_records_ + wal_.appended_records();
  }

  /// First WAL append failure since the last successful checkpoint, if
  /// any (OK otherwise). A failed append leaves the in-memory store
  /// ahead of the log; the next Checkpoint — which MaybeCheckpoint
  /// forces while this is set — snapshots that state and restores full
  /// durability. kResourceExhausted here means the disk is full: the
  /// store keeps serving reads and in-memory writes (read_only() below)
  /// and heals automatically once a later checkpoint succeeds.
  const Status& wal_error() const { return deferred_error_; }

  /// True while a WAL error is latched: new mutations apply in memory
  /// but are NOT durable until a checkpoint succeeds. Callers that must
  /// not acknowledge non-durable writes should refuse writes while set.
  /// Readable from any thread (atomic mirror of the latched error, so
  /// the server's stats path can poll it off the writer thread).
  bool read_only() const { return read_only_.load(std::memory_order_relaxed); }

  /// True when Open() could not use the newest snapshot (missing or
  /// corrupt) and recovered from the retained previous generation.
  bool recovered_from_fallback() const { return recovered_from_fallback_; }

  /// Consecutive MaybeCheckpoint failures (0 after a success), the
  /// number of calls the backoff will still skip, and the cumulative
  /// count of backed-off calls — surfaced in MaintenanceReport and over
  /// the wire in StatsResult. Atomic so stats snapshots taken off the
  /// writer thread race cleanly with checkpointing.
  uint32_t checkpoint_failure_streak() const {
    return checkpoint_failure_streak_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoint_backoff_remaining() const {
    return checkpoint_backoff_remaining_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoints_backed_off() const {
    return checkpoints_backed_off_.load(std::memory_order_relaxed);
  }

  const std::string& snapshot_path() const { return snapshot_path_; }
  const std::string& wal_path() const { return wal_path_; }
  const std::string& prev_snapshot_path() const {
    return prev_snapshot_path_;
  }
  const std::string& prev_wal_path() const { return prev_wal_path_; }

  // --- replication support ---------------------------------------------------

  /// Registers (or clears, with null) the WAL shipping hook. While a
  /// hook is set, checkpoints retain retired WAL segments the hook still
  /// needs (bounded by DurabilityOptions::repl_backlog_*) instead of
  /// overwriting `wal.log.1`. Writer-thread only; clear the hook before
  /// destroying the shipper.
  void SetShippingHook(WalShippingHook* hook) { shipping_hook_ = hook; }

  /// Highest sequence ever stamped into the WAL (identical to the value
  /// the next checkpoint snapshot will cover).
  uint64_t last_sequence() const { return last_sequence_; }

  /// Highest follower position still servable by streaming retained WAL
  /// frames: a subscriber at `from_sequence >= shippable_floor()` can
  /// catch up from disk; one below it must snapshot-bootstrap. (A hint:
  /// rare in-window gaps — e.g. appends lost to a latched WAL failure —
  /// surface as follower-side gap detection and force a snapshot.)
  uint64_t shippable_floor() const {
    return retired_segments_.empty() ? active_base_sequence_
                                     : retired_segments_.back().min_sequence - 1;
  }

  /// Retired segments currently retained, newest first
  /// (`retired_wal_segments()[0]` is `wal.log.1`).
  const std::vector<WalSegmentInfo>& retired_wal_segments() const {
    return retired_segments_;
  }

  /// Total bytes of retained retired segments (the
  /// `cqms_repl_backlog_bytes` gauge's value).
  uint64_t repl_backlog_bytes() const { return backlog_bytes_; }

  Env* env() const { return env_; }

  /// StoreListener: frames every logged mutation (all but kSyncOutput)
  /// into the WAL. The store calls this; not for direct use.
  void OnMutation(const Mutation& mutation) override;

 private:
  void SweepStaleTmpFiles();
  /// Checkpoint() body; the public wrapper adds duration / failure
  /// instrumentation around it.
  Status CheckpointImpl();
  /// Writes the encoded snapshot to a tmp file, preserves the previous
  /// generation, publishes the new one and syncs the directory.
  Status PublishSnapshot(const std::string& encoded);
  /// `<dir>/wal.log.<index>` (index >= 1; 1 is the newest retired).
  std::string RetiredWalPath(uint32_t index) const;
  /// The checkpoint's retention step: drops retired segments no longer
  /// needed (or over the caps), shifts the kept ones one index up, and
  /// records the just-rotated active log as the new `wal.log.1`.
  Status RetireActiveWal();
  void UpdateBacklogGauge();

  QueryStore* store_;
  std::string dir_;
  std::string snapshot_path_;
  std::string wal_path_;
  std::string prev_snapshot_path_;
  std::string prev_wal_path_;
  DurabilityOptions options_;
  Env* env_;
  WalWriter wal_;
  WalReplayStats replay_stats_;
  uint64_t replayed_records_ = 0;
  /// Monotonic mutation sequence (never reset, stamped into every WAL
  /// frame and into each checkpoint snapshot) — what makes recovery
  /// idempotent when a crash lands between snapshot write and WAL
  /// rotation: replay skips frames the snapshot already covers.
  uint64_t last_sequence_ = 0;
  bool open_ = false;
  bool recovered_from_fallback_ = false;
  /// First WAL append error since the last successful checkpoint —
  /// listener callbacks cannot return one, so it is surfaced via
  /// wal_error() and repaired by the next checkpoint. Written only on
  /// the writer thread; read_only_ mirrors its ok()-ness for readers on
  /// other threads.
  Status deferred_error_;
  std::atomic<bool> read_only_{false};
  // Checkpoint retry pacing (see MaybeCheckpoint). Mutated only on the
  // writer thread; atomic for cross-thread stats reads.
  std::atomic<uint32_t> checkpoint_failure_streak_{0};
  std::atomic<uint64_t> checkpoint_backoff_remaining_{0};
  std::atomic<uint64_t> checkpoints_backed_off_{0};
  Status last_checkpoint_error_;
  /// Replication shipping (writer thread only; see SetShippingHook).
  WalShippingHook* shipping_hook_ = nullptr;
  /// Retained retired WAL generations, newest first (index i maps to
  /// `wal.log.(i+1)` on disk).
  std::vector<WalSegmentInfo> retired_segments_;
  uint64_t backlog_bytes_ = 0;
  /// Sequence the active WAL starts after: frames in it are
  /// (active_base_sequence_, last_sequence_]. Advanced at checkpoint.
  uint64_t active_base_sequence_ = 0;
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_DURABLE_STORE_H_
