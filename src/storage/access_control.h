#ifndef CQMS_STORAGE_ACCESS_CONTROL_H_
#define CQMS_STORAGE_ACCESS_CONTROL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "storage/query_record.h"

namespace cqms::storage {

/// Who may see a logged query (§2.4 User Administrative Interaction:
/// "define access control rules on their queries, e.g. sharing them only
/// with members of the same research group").
enum class Visibility {
  kPrivate,  ///< Owner only.
  kGroup,    ///< Owner plus users sharing at least one group. Default.
  kPublic,   ///< Everyone.
};

/// Users, groups and per-query visibility rules. Every read path of the
/// CQMS (search, browse, recommendations, mining inputs) filters through
/// `CanSee` so knowledge transfer respects collaboration boundaries.
/// A store's ACL changes only through QueryStore::AddUser and
/// QueryStore::SetVisibility, which notify the store's listeners;
/// QueryStore::acl() is read-only.
class AccessControl {
 public:
  /// Registers `user` as a member of `groups` (creates groups on demand;
  /// repeated calls merge memberships). Returns false, without bumping
  /// the epoch, when the user already belongs to every group.
  bool AddUser(const std::string& user, const std::vector<std::string>& groups);

  /// True when the user has been registered.
  bool HasUser(const std::string& user) const { return memberships_.count(user) > 0; }

  /// Groups of `user` (empty set for unknown users).
  const std::set<std::string>& GroupsOf(const std::string& user) const;

  bool ShareGroup(const std::string& a, const std::string& b) const;

  /// Sets the visibility of one query. The owner check lives in
  /// QueryStore::SetVisibility, the only writer.
  void SetVisibility(QueryId id, Visibility visibility);

  Visibility GetVisibility(QueryId id) const;

  /// Core check: may `viewer` see a query owned by `owner` with the
  /// visibility registered for `id`? Owners always see their own queries.
  bool CanSee(const std::string& viewer, const std::string& owner, QueryId id) const;

  /// All registered users with their group memberships (for persistence
  /// and administrative listing).
  const std::map<std::string, std::set<std::string>>& memberships() const {
    return memberships_;
  }

  /// Monotonic counter bumped by every mutation that can change a
  /// CanSee outcome (group membership merges, per-query visibility
  /// changes). Long-lived VisibilityCaches compare it against the value
  /// they snapshotted and drop their memoized decisions on mismatch, so
  /// caching never outlives an ACL change.
  uint64_t epoch() const { return epoch_; }

 private:
  std::map<std::string, std::set<std::string>> memberships_;
  std::map<QueryId, Visibility> visibility_;
  uint64_t epoch_ = 0;
  std::set<std::string> empty_;
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_ACCESS_CONTROL_H_
