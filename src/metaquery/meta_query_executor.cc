#include "metaquery/meta_query_executor.h"

#include <algorithm>

namespace cqms::metaquery {

void MetaQueryExecutor::WithSnapshot(const std::string& viewer,
                                     const SnapshotFn& fn) const {
  if (store_->views_enabled()) {
    // The pin holds the view for the whole call; the view pools
    // visibility caches per (viewer, thread).
    storage::PinnedView view = store_->PinView();
    fn(storage::StoreView(*view), &view->CacheFor(viewer));
    return;
  }
  fn(storage::StoreView(*store_), &store_->CacheFor(viewer));
}

MetaQueryResponse MetaQueryExecutor::Execute(
    const std::string& viewer, const MetaQueryRequest& request) const {
  MetaQueryResponse response;
  WithSnapshot(viewer, [&](const storage::StoreView& view,
                           storage::VisibilityCache* visibility) {
    response = MetaQueryPlanner(view).Execute(request, visibility);
  });
  return response;
}

Result<db::QueryResult> MetaQueryExecutor::Sql(const std::string& viewer,
                                               const std::string& meta_sql) const {
  CQMS_ASSIGN_OR_RETURN(db::QueryResult result,
                        store_->feature_db().ExecuteSql(meta_sql));
  // Visibility: filter on the qid column when present.
  auto it = std::find(result.column_names.begin(), result.column_names.end(), "qid");
  if (it != result.column_names.end()) {
    size_t qid_col = static_cast<size_t>(it - result.column_names.begin());
    storage::VisibilityCache& cache = store_->CacheFor(viewer);
    std::vector<db::Row> kept;
    kept.reserve(result.rows.size());
    for (db::Row& r : result.rows) {
      const db::Value& v = r[qid_col];
      if (v.type() == db::ValueType::kInt && v.AsInt() >= 0 &&
          static_cast<size_t>(v.AsInt()) < store_->size() &&
          cache.VisibleId(v.AsInt())) {
        kept.push_back(std::move(r));
      }
    }
    result.rows = std::move(kept);
  }
  return result;
}

}  // namespace cqms::metaquery
