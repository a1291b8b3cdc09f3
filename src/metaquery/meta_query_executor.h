#ifndef CQMS_METAQUERY_META_QUERY_EXECUTOR_H_
#define CQMS_METAQUERY_META_QUERY_EXECUTOR_H_

#include <functional>
#include <string>

#include "metaquery/meta_query_planner.h"
#include "metaquery/meta_query_request.h"
#include "storage/query_store.h"

namespace cqms::metaquery {

/// The CQMS Meta-Query Executor (Figure 4): the single online entry point
/// for all four classes of meta-queries the paper identifies (§4.2) —
/// keyword, complex feature/structure conditions, output conditions, and
/// kNN — with access control applied on every path.
///
/// Every class is a MetaQueryRequest (a conjunction of composable
/// predicates plus one RankingOptions) handed to `Execute`; combining
/// predicates — "queries touching `lineage` with skeleton X, similar to
/// this probe, ranked by popularity" — is one request.
///
/// The executor is also the only code that decides what a read runs
/// against. With read views enabled, `WithSnapshot` pins the current
/// published view for the whole call, so the planner, record reads and
/// visibility all see one immutable snapshot, untouched by the writer;
/// visibility memoization lives in the view's per-(viewer, thread) cache
/// pool and stays warm across a thread's queries. Without views it runs
/// against the live store (single-threaded callers, same results).
///
/// Thread model: the executor itself is stateless, so one executor serves
/// any number of concurrent caller threads once views are enabled.
class MetaQueryExecutor {
 public:
  /// `store` must outlive the executor.
  explicit MetaQueryExecutor(const storage::QueryStore* store)
      : store_(store) {}

  /// Receives one consistent snapshot: its read facade and `viewer`'s
  /// visibility cache over it. Neither may be kept past the call.
  using SnapshotFn = std::function<void(const storage::StoreView& view,
                                        storage::VisibilityCache* visibility)>;

  /// Runs `fn` against one snapshot for `viewer` (see the class
  /// comment): a pinned published view when the store has views, else
  /// the live store.
  void WithSnapshot(const std::string& viewer, const SnapshotFn& fn) const;

  /// Runs any predicate combination through the planner on one snapshot.
  MetaQueryResponse Execute(const std::string& viewer,
                            const MetaQueryRequest& request) const;

  /// Runs arbitrary SQL against the Figure-1 feature relations. When the
  /// result exposes a `qid` column, rows whose query is not visible to
  /// `viewer` are removed — SQL meta-querying cannot bypass the ACL.
  /// Live-store only (the feature database is not part of published
  /// views): call from the writer thread, never concurrently with
  /// mutations.
  Result<db::QueryResult> Sql(const std::string& viewer,
                              const std::string& meta_sql) const;

 private:
  const storage::QueryStore* store_;
};

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_META_QUERY_EXECUTOR_H_
