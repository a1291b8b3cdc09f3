// Reference implementations of the meta-query classes: the pre-planner
// scans over the live QueryStore, kept only as oracles for the planner
// equality suite and as the reference bench series (bench_knn's
// BM_KnnLshReference). The shipped path is MetaQueryExecutor::Execute;
// do not optimize these.
//
// Also here: the request shapes the tests send through Execute for each
// class (`LogOrderIds`, `Knn`), so a test reads like the class it checks.

#ifndef CQMS_TESTS_METAQUERY_ORACLES_H_
#define CQMS_TESTS_METAQUERY_ORACLES_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "metaquery/meta_query_executor.h"
#include "storage/query_store.h"

namespace cqms::metaquery {

/// One kNN result.
struct Neighbor {
  storage::QueryId id = storage::kInvalidQueryId;
  double similarity = 0;  ///< Raw combined similarity in [0,1].
  double score = 0;       ///< Ranked score (similarity + boosts).
};

// --- requests through the executor -----------------------------------------

/// Ids of `request` in log order with flagged queries kept: the shape of
/// every class 1-3 meta-query (keyword, substring, feature, structure,
/// data).
inline std::vector<storage::QueryId> LogOrderIds(
    const MetaQueryExecutor& executor, const std::string& viewer,
    MetaQueryRequest request) {
  request.InLogOrder();
  request.ranking.exclude_flagged = false;
  return executor.Execute(viewer, request).Ids();
}

/// Class 4: the `k` best-ranked queries similar to `probe`.
inline std::vector<Neighbor> Knn(const MetaQueryExecutor& executor,
                                 const std::string& viewer,
                                 const storage::QueryRecord& probe, size_t k,
                                 const SimilarityWeights& weights = {},
                                 const RankingOptions& ranking = {},
                                 const CandidateOptions& candidates = {}) {
  if (k == 0) return {};  // Limit(0) would mean "all".
  MetaQueryRequest request;
  request.SimilarTo(probe, weights, candidates).RankedBy(ranking).Limit(k);
  std::vector<Neighbor> out;
  for (const MetaQueryMatch& m : executor.Execute(viewer, request).matches) {
    out.push_back({m.id, m.similarity, m.score});
  }
  return out;
}

// --- oracles ---------------------------------------------------------------

/// Keyword search over the posting lists; with `match_all` every word
/// must appear. Visible ids in log order.
inline std::vector<storage::QueryId> KeywordSearch(
    const storage::QueryStore& store, const std::string& viewer,
    const std::string& words, bool match_all = true) {
  std::vector<std::string> tokens = ExtractWords(words);
  std::vector<storage::QueryId> out;
  if (tokens.empty()) return out;

  if (match_all) {
    // Intersect posting lists, smallest first.
    std::vector<const std::vector<storage::QueryId>*> lists;
    lists.reserve(tokens.size());
    for (const std::string& t : tokens) {
      lists.push_back(&store.QueriesWithKeyword(t));
      if (lists.back()->empty()) return out;
    }
    std::sort(lists.begin(), lists.end(),
              [](const auto* a, const auto* b) { return a->size() < b->size(); });
    std::vector<storage::QueryId> current = *lists[0];
    for (size_t i = 1; i < lists.size() && !current.empty(); ++i) {
      std::vector<storage::QueryId> next;
      // Posting lists are in ascending id order by construction.
      std::set_intersection(current.begin(), current.end(), lists[i]->begin(),
                            lists[i]->end(), std::back_inserter(next));
      current = std::move(next);
    }
    for (storage::QueryId id : current) {
      if (store.Visible(viewer, id)) out.push_back(id);
    }
    return out;
  }

  // match-any: union.
  std::vector<storage::QueryId> merged;
  for (const std::string& t : tokens) {
    const auto& ids = store.QueriesWithKeyword(t);
    merged.insert(merged.end(), ids.begin(), ids.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  for (storage::QueryId id : merged) {
    if (store.Visible(viewer, id)) out.push_back(id);
  }
  return out;
}

/// Case-insensitive substring scan over each record's lowered text (the
/// scoring columns memoize it at append time).
inline std::vector<storage::QueryId> SubstringSearch(
    const storage::QueryStore& store, const std::string& viewer,
    const std::string& needle) {
  std::vector<storage::QueryId> out;
  if (needle.empty()) return out;
  const std::string lowered = ToLower(needle);
  const storage::ScoringColumns& cols = store.scoring();
  for (const storage::QueryRecord& r : store.records()) {
    if (!store.Visible(viewer, r.id)) continue;
    if (cols.lowered_text(r.id).find(lowered) != std::string_view::npos) {
      out.push_back(r.id);
    }
  }
  return out;
}

/// Query-by-feature: intersects the query's posting lists (full scan
/// when none), then filters with FeatureQuery::MatchesRecord. Visible ids
/// in log order.
inline std::vector<storage::QueryId> FeatureSearch(
    const storage::QueryStore& store, const std::string& viewer,
    const FeatureQuery& query) {
  std::vector<const std::vector<storage::QueryId>*> lists;
  for (const std::string& t : query.tables()) {
    lists.push_back(&store.QueriesUsingTable(t));
  }
  for (const auto& [rel, attr] : query.attributes()) {
    lists.push_back(&store.QueriesUsingAttribute(rel, attr));
  }
  for (const auto& p : query.predicates()) {
    lists.push_back(&store.QueriesUsingAttribute(p.relation, p.attribute));
  }
  if (query.user().has_value()) {
    lists.push_back(&store.QueriesByUser(*query.user()));
  }

  std::vector<storage::QueryId> candidates;
  if (lists.empty()) {
    candidates.reserve(store.size());
    for (const auto& r : store.records()) candidates.push_back(r.id);
  } else {
    std::sort(lists.begin(), lists.end(),
              [](const auto* a, const auto* b) { return a->size() < b->size(); });
    candidates = *lists[0];
    for (size_t i = 1; i < lists.size() && !candidates.empty(); ++i) {
      std::vector<storage::QueryId> next;
      std::set_intersection(candidates.begin(), candidates.end(),
                            lists[i]->begin(), lists[i]->end(),
                            std::back_inserter(next));
      candidates = std::move(next);
    }
  }

  std::vector<storage::QueryId> out;
  for (storage::QueryId id : candidates) {
    if (!store.Visible(viewer, id)) continue;
    const storage::QueryRecord* r = store.Get(id);
    if (r == nullptr) continue;
    if (query.MatchesRecord(*r)) out.push_back(id);
  }
  return out;
}

/// Structural (parse-tree) search; prunes candidates by the rarest
/// required table. Visible ids in log order.
inline std::vector<storage::QueryId> StructuralSearch(
    const storage::QueryStore& store, const std::string& viewer,
    const StructuralPattern& pattern) {
  std::vector<storage::QueryId> out;
  if (!pattern.required_tables.empty()) {
    const std::vector<storage::QueryId>* smallest = nullptr;
    for (const std::string& t : pattern.required_tables) {
      const auto& ids = store.QueriesUsingTable(t);
      if (smallest == nullptr || ids.size() < smallest->size()) smallest = &ids;
    }
    for (storage::QueryId id : *smallest) {
      const storage::QueryRecord* r = store.Get(id);
      if (r != nullptr && store.Visible(viewer, id) &&
          MatchesPattern(*r, pattern)) {
        out.push_back(id);
      }
    }
    return out;
  }
  for (const storage::QueryRecord& r : store.records()) {
    if (store.Visible(viewer, r.id) && MatchesPattern(r, pattern)) {
      out.push_back(r.id);
    }
  }
  return out;
}

/// Query-by-data: visible queries whose output satisfies all examples,
/// in log order.
inline std::vector<storage::QueryId> QueryByData(
    const storage::QueryStore& store, const std::string& viewer,
    const std::vector<DataExample>& examples,
    const QueryByDataOptions& options = {}) {
  std::vector<storage::QueryId> out;
  for (const storage::QueryRecord& r : store.records()) {
    if (!store.Visible(viewer, r.id)) continue;
    if (RecordSatisfiesDataExamples(r, examples, options)) out.push_back(r.id);
  }
  return out;
}

/// The pre-planner kNN scoring loop, the ground truth for kNN: the
/// planner's candidate generator, then scoring that reads candidates
/// through the record deque and the fingerprint hash index instead of
/// the scoring columns.
inline std::vector<Neighbor> KnnSearchReference(
    const storage::QueryStore& store, const std::string& viewer,
    const storage::QueryRecord& probe, size_t k,
    const SimilarityWeights& weights = {}, const RankingOptions& ranking = {},
    const CandidateOptions& candidate_options = {}) {
  KnnCandidates generated =
      KnnCandidateIds(storage::StoreView(store), probe, candidate_options);
  std::vector<storage::QueryId> candidates = std::move(generated.ids);
  if (generated.full_scan()) {
    candidates.resize(store.size());
    std::iota(candidates.begin(), candidates.end(), storage::QueryId{0});
  }

  Micros max_ts = std::max<Micros>(1, store.max_timestamp());
  double inv_log_size =
      1.0 / std::log1p(static_cast<double>(store.size()) + 1.0);

  storage::VisibilityCache& visibility = store.CacheFor(viewer);
  std::vector<Neighbor> scored;
  scored.reserve(candidates.size());
  for (storage::QueryId id : candidates) {
    const storage::QueryRecord* r = store.Get(id);
    if (r == nullptr || !visibility.Visible(*r)) continue;
    if (ranking.exclude_flagged &&
        (r->HasFlag(storage::kFlagSchemaBroken) ||
         r->HasFlag(storage::kFlagObsolete))) {
      continue;
    }
    double sim = CombinedSimilarity(probe, *r, weights);
    if (sim < ranking.min_similarity) continue;

    double popularity =
        std::log1p(static_cast<double>(store.PopularityOf(r->fingerprint))) *
        inv_log_size;
    double recency = max_ts > 0 ? static_cast<double>(r->timestamp) /
                                      static_cast<double>(max_ts)
                                : 0;
    double score = ranking.w_similarity * sim +
                   ranking.w_popularity * popularity +
                   ranking.w_quality * r->quality + ranking.w_recency * recency;
    scored.push_back({id, sim, score});
  }

  size_t keep = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  scored.resize(keep);
  return scored;
}

}  // namespace cqms::metaquery

#endif  // CQMS_TESTS_METAQUERY_ORACLES_H_
