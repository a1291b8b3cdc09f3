#ifndef CQMS_STORAGE_MUTATION_H_
#define CQMS_STORAGE_MUTATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/access_control.h"
#include "storage/query_record.h"

namespace cqms::storage {

/// Mutation kinds. The values are the write-ahead log's record op
/// bytes (docs/persistence.md), so they must never be renumbered.
enum class WalOp : uint8_t {
  /// The record's output-derived signature section was recomputed
  /// (QueryStore::SyncOutputSignature after a maintenance stats
  /// refresh). Observed by listeners but never logged: refreshed stats
  /// are refreshable state the next checkpoint snapshot captures
  /// wholesale, and the decoder rejects this tag like any unknown one.
  /// Similarity-derived caches (the miner's DistanceCache) still must
  /// invalidate, since output rows feed CombinedSimilarity.
  kSyncOutput = 0,
  kAppend = 1,
  kRewrite = 2,
  kAnnotate = 3,
  kFlagSet = 4,
  kFlagClear = 5,
  kSetSession = 6,
  kSetQuality = 7,
  kDelete = 8,
  kAddUser = 9,
  kSetVisibility = 10,
};

/// One durable change to a QueryStore (or its AccessControl): the value
/// listeners observe, the payload EncodeMutation frames into the WAL,
/// and what recovery and replicas decode and apply (ApplyWalRecord).
/// Only the fields of `op` are meaningful.
struct Mutation {
  Mutation() = default;
  Mutation(WalOp op, QueryId id) : op(op), id(id) {}

  WalOp op = WalOp::kAppend;
  /// Target query; unused by kAddUser.
  QueryId id = kInvalidQueryId;
  /// kAppend: the stored record, after id assignment and signature
  /// finalization. kRewrite: the rewritten record, whose text and
  /// output-signature section the frame carries (rewrites preserve the
  /// unpersisted output summary, so replay cannot refold its hashes).
  /// Borrowed from the store for the duration of the callback, or owned
  /// by `decoded` for a mutation read off the log.
  const QueryRecord* record = nullptr;
  Annotation annotation;                       ///< kAnnotate.
  QueryFlags flag = kFlagNone;                 ///< kFlagSet / kFlagClear.
  SessionId session = kInvalidSessionId;       ///< kSetSession.
  double quality = 0.0;                        ///< kSetQuality, clamped.
  std::string user;                            ///< kAddUser.
  std::vector<std::string> groups;             ///< kAddUser.
  Visibility visibility = Visibility::kGroup;  ///< kSetVisibility.
  /// Backing storage for `record` after decoding. A decoded append
  /// carries the logged fields only; `text_parses` holds the frame's
  /// parsed hint.
  std::unique_ptr<QueryRecord> decoded;
};

/// Observer of every durable mutation of a QueryStore, ACL changes
/// included. The write-ahead log subscribes through this interface so
/// existing call sites — the profiler's Append, the maintenance pass's
/// repairs and flags, the facade's ACL administration — become durable
/// without rerouting a single caller. The incremental mining engine's
/// ChangeTracker subscribes through the same interface to accumulate
/// per-cycle dirty sets; a store carries any number of listeners (see
/// QueryStore::AddListener).
///
/// OnMutation fires synchronously, after the mutation has been applied
/// and only when it changed state. In-place edits through GetMutable()
/// (e.g. the maintenance stats refresh) are intentionally not observed:
/// they mutate refreshable profiling state that the next checkpoint
/// snapshot captures wholesale (see docs/persistence.md).
class StoreListener {
 public:
  virtual ~StoreListener() = default;
  virtual void OnMutation(const Mutation& mutation) = 0;
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_MUTATION_H_
