#ifndef CQMS_METAQUERY_META_QUERY_PLANNER_H_
#define CQMS_METAQUERY_META_QUERY_PLANNER_H_

#include <string>

#include "metaquery/meta_query_request.h"
#include "storage/query_store.h"

namespace cqms::metaquery {

/// Executes a MetaQueryRequest against the store: the one pipeline every
/// meta-query class now runs through.
///
/// Candidate generation picks the cheapest exact generator by estimated
/// selectivity:
///
///   1. If any predicate is backed by a posting list (keyword tokens,
///      feature/structure tables, attributes, user), all such lists are
///      intersected smallest-first — the smallest list bounds the
///      candidate count, and intersections keep conjunction semantics
///      exact. An empty required list short-circuits to zero results.
///   2. Otherwise, a similarity probe generates candidates through
///      KnnCandidateIds: LSH band buckets on large logs (approximate by
///      contract), else the probe's table-posting union. The LSH generator is deliberately *not* used when posting
///      lists exist: it can miss true conjunction matches, and an exact
///      generator of bounded size is already available.
///   3. Full scan only as last resort (substring / data / structure
///      predicates with no required tables).
///
/// Candidates then stream through one filter + scoring loop that reads
/// the store's ScoringColumns (contiguous hot fields, packed signature
/// spans, slot-indexed popularity) instead of the record deque; the
/// record struct is touched only for the predicates that need it
/// (feature / structure / data). Visibility is resolved exactly once per
/// candidate through the caller's VisibilityCache.
class MetaQueryPlanner {
 public:
  /// Plans against a read facade — the live store or a pinned published
  /// view; MetaQueryExecutor::WithSnapshot chooses which. Whatever backs
  /// the facade must outlive the planner.
  explicit MetaQueryPlanner(storage::StoreView view) : view_(view) {}

  /// Runs `request` for `visibility`'s viewer. The cache must be backed
  /// by the same store / view as the planner; it memoizes ACL decisions
  /// across calls (and, on the live path, self-invalidates on ACL
  /// mutation).
  MetaQueryResponse Execute(const MetaQueryRequest& request,
                            storage::VisibilityCache* visibility) const;

 private:
  storage::StoreView view_;
};

}  // namespace cqms::metaquery

#endif  // CQMS_METAQUERY_META_QUERY_PLANNER_H_
