#include "storage/change_tracker.h"

#include "common/sorted_vector.h"
#include "storage/query_store.h"

namespace cqms::storage {

ChangeTracker::~ChangeTracker() { Detach(); }

void ChangeTracker::Attach(QueryStore* store) {
  Detach();
  store_ = store;
  if (store_ != nullptr) store_->AddListener(this);
}

void ChangeTracker::Detach() {
  if (store_ != nullptr) store_->RemoveListener(this);
  store_ = nullptr;
}

ChangeDelta ChangeTracker::Drain() {
  ChangeDelta out = std::move(pending_);
  pending_ = ChangeDelta{};
  return out;
}

void ChangeTracker::OnMutation(const Mutation& m) {
  if (Suppressed()) return;
  switch (m.op) {
    case WalOp::kAppend:
      // Ids are assigned monotonically, so plain push_back keeps the set
      // sorted and duplicate-free.
      pending_.appended.push_back(m.id);
      break;
    case WalOp::kRewrite:
      InsertSorted(&pending_.rewritten, m.id);
      break;
    case WalOp::kSyncOutput:
      InsertSorted(&pending_.output_synced, m.id);
      break;
    case WalOp::kFlagSet:
      if (m.flag == kFlagDeleted) InsertSorted(&pending_.deleted, m.id);
      break;
    case WalOp::kFlagClear:
      if (m.flag == kFlagDeleted) InsertSorted(&pending_.undeleted, m.id);
      break;
    case WalOp::kDelete:
      InsertSorted(&pending_.deleted, m.id);
      break;
    case WalOp::kSetSession:
      InsertSorted(&pending_.session_reassigned, m.id);
      break;
    case WalOp::kAnnotate:
    case WalOp::kSetQuality:
    case WalOp::kAddUser:
    case WalOp::kSetVisibility:
      // Annotations and quality feed no mining pass; mining reads the
      // raw log, and the ACL applies at meta-query time.
      break;
  }
}

}  // namespace cqms::storage
