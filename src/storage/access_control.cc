#include "storage/access_control.h"

namespace cqms::storage {

bool AccessControl::AddUser(const std::string& user,
                            const std::vector<std::string>& groups) {
  // Idempotent re-registration (apps re-register their user set on
  // every startup) is a no-op: no epoch bump — which would invalidate
  // every VisibilityCache — and no WAL record.
  auto known = memberships_.find(user);
  if (known != memberships_.end()) {
    bool all_present = true;
    for (const std::string& g : groups) {
      if (known->second.count(g) == 0) {
        all_present = false;
        break;
      }
    }
    if (all_present) return false;
  }
  auto& set = memberships_[user];
  for (const std::string& g : groups) set.insert(g);
  ++epoch_;
  return true;
}

const std::set<std::string>& AccessControl::GroupsOf(const std::string& user) const {
  auto it = memberships_.find(user);
  return it == memberships_.end() ? empty_ : it->second;
}

bool AccessControl::ShareGroup(const std::string& a, const std::string& b) const {
  const auto& ga = GroupsOf(a);
  const auto& gb = GroupsOf(b);
  // Iterate the smaller set.
  const auto& small = ga.size() <= gb.size() ? ga : gb;
  const auto& large = ga.size() <= gb.size() ? gb : ga;
  for (const std::string& g : small) {
    if (large.count(g) > 0) return true;
  }
  return false;
}

void AccessControl::SetVisibility(QueryId id, Visibility visibility) {
  visibility_[id] = visibility;
  ++epoch_;
}

Visibility AccessControl::GetVisibility(QueryId id) const {
  auto it = visibility_.find(id);
  return it == visibility_.end() ? Visibility::kGroup : it->second;
}

bool AccessControl::CanSee(const std::string& viewer, const std::string& owner,
                           QueryId id) const {
  if (viewer == owner) return true;
  switch (GetVisibility(id)) {
    case Visibility::kPrivate:
      return false;
    case Visibility::kGroup:
      return ShareGroup(viewer, owner);
    case Visibility::kPublic:
      return true;
  }
  return false;
}

}  // namespace cqms::storage
