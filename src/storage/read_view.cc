#include "storage/read_view.h"

#include "common/sorted_vector.h"
#include "common/string_util.h"
#include "storage/query_store.h"

namespace cqms::storage {

namespace {

const std::vector<QueryId>& EmptyIds() {
  static const std::vector<QueryId> empty;
  return empty;
}

}  // namespace

const std::vector<QueryId>& PostingIndex::UsingTable(
    const std::string& table) const {
  // Find() never inserts, so probing unseen names cannot grow the
  // global interner.
  return UsingTableSymbol(GlobalInterner().Find(ToLower(table)));
}

const std::vector<QueryId>& PostingIndex::UsingTableSymbol(
    Symbol table) const {
  if (table == kInvalidSymbol) return EmptyIds();
  auto it = by_table.find(table);
  return it == by_table.end() ? EmptyIds() : it->second;
}

std::vector<QueryId> PostingIndex::UsingAnyTable(
    const std::vector<std::string>& tables) const {
  std::vector<QueryId> out;
  if (tables.size() == 1) {
    out = UsingTable(tables[0]);
    return out;
  }
  size_t total = 0;
  for (const std::string& t : tables) total += UsingTable(t).size();
  out.reserve(total);
  for (const std::string& t : tables) {
    const std::vector<QueryId>& ids = UsingTable(t);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  SortUnique(&out);
  return out;
}

std::vector<QueryId> PostingIndex::UsingAnyTableSymbol(
    const std::vector<Symbol>& tables) const {
  std::vector<QueryId> out;
  if (tables.size() == 1) {
    out = UsingTableSymbol(tables[0]);
    return out;
  }
  size_t total = 0;
  for (Symbol t : tables) total += UsingTableSymbol(t).size();
  out.reserve(total);
  for (Symbol t : tables) {
    const std::vector<QueryId>& ids = UsingTableSymbol(t);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  SortUnique(&out);
  return out;
}

const std::vector<QueryId>& PostingIndex::UsingAttribute(
    const std::string& relation, const std::string& attribute) const {
  return UsingAttributeSymbol(
      GlobalInterner().Find(ToLower(relation) + "." + ToLower(attribute)));
}

const std::vector<QueryId>& PostingIndex::UsingAttributeSymbol(
    Symbol qualified) const {
  if (qualified == kInvalidSymbol) return EmptyIds();
  auto it = by_attribute.find(qualified);
  return it == by_attribute.end() ? EmptyIds() : it->second;
}

const std::vector<QueryId>& PostingIndex::ByUser(const std::string& user) const {
  auto it = by_user.find(user);
  return it == by_user.end() ? EmptyIds() : it->second;
}

const std::vector<QueryId>& PostingIndex::WithKeyword(
    const std::string& word) const {
  return WithKeywordSymbol(GlobalInterner().Find(ToLower(word)));
}

const std::vector<QueryId>& PostingIndex::WithKeywordSymbol(
    Symbol token) const {
  if (token == kInvalidSymbol) return EmptyIds();
  auto it = by_keyword.find(token);
  return it == by_keyword.end() ? EmptyIds() : it->second;
}

const std::vector<QueryId>& PostingIndex::WithSkeleton(
    uint64_t skeleton_fp) const {
  auto it = by_skeleton.find(skeleton_fp);
  return it == by_skeleton.end() ? EmptyIds() : it->second;
}

uint64_t PostingIndex::PopularityOf(uint64_t fingerprint) const {
  auto it = by_fingerprint.find(fingerprint);
  return it == by_fingerprint.end() ? 0 : it->second.size();
}

// Out-of-line: ~map<..., unique_ptr<VisibilityCache>> needs the
// complete VisibilityCache.
ReadViewState::~ReadViewState() = default;

VisibilityCache& ReadViewState::CacheFor(const std::string& viewer) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto key = std::make_pair(viewer, std::this_thread::get_id());
  std::unique_ptr<VisibilityCache>& slot = caches_[key];
  if (slot == nullptr) {
    slot = std::make_unique<VisibilityCache>(StoreView(*this), viewer);
  }
  return *slot;
}

bool VisibilityCache::AclVisible(QueryId id) const {
  // Invalidate-on-mutation: group memberships or per-query visibility
  // may have changed since the entries were memoized. (Frozen views
  // never bump their ACL epoch, so view-backed caches fill once.)
  uint64_t epoch = view_.acl().epoch();
  if (epoch != acl_epoch_) {
    acl_epoch_ = epoch;
    acl_ok_.clear();
    shares_group_.clear();
  }
  size_t idx = static_cast<size_t>(id);
  if (idx >= acl_ok_.size()) {
    acl_ok_.resize(view_.size(), kUnknown);
    // Find() never inserts; resolving here (not per candidate) keeps the
    // interner mutex off the hot path.
    viewer_symbol_ = GlobalInterner().Find(viewer_);
  }
  uint8_t cached = acl_ok_[idx];
  if (cached != kUnknown) {
    ++acl_hits_;
    return cached == kVisible;
  }
  ++acl_misses_;

  // Owner identity via the columns' interned Symbol — equality of ids is
  // equality of names, with no record-log touch.
  Symbol owner = view_.scoring().owner(id);
  bool visible = false;
  if (owner == viewer_symbol_ && owner != kInvalidSymbol) {
    visible = true;
  } else {
    switch (view_.acl().GetVisibility(id)) {
      case Visibility::kPrivate:
        visible = false;
        break;
      case Visibility::kPublic:
        visible = true;
        break;
      case Visibility::kGroup: {
        auto [it, inserted] = shares_group_.try_emplace(owner, false);
        if (inserted) {
          it->second = view_.acl().ShareGroup(
              viewer_, std::string(GlobalInterner().NameOf(owner)));
        }
        visible = it->second;
        break;
      }
    }
  }
  acl_ok_[idx] = visible ? kVisible : kHidden;
  return visible;
}

}  // namespace cqms::storage
