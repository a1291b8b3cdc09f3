#include "assist/assisted_composer.h"

namespace cqms::assist {

AssistedComposer::AssistedComposer(const storage::QueryStore* store,
                                   const db::Database* database,
                                   const miner::QueryMiner* miner,
                                   AssistOptions options)
    : completion_(store, miner, &database->catalog()),
      correction_(store, database),
      recommendation_(store),
      options_(options) {}

AssistResponse AssistedComposer::Assist(const std::string& viewer,
                                        const std::string& partial_text) const {
  AssistResponse response;
  response.completions =
      completion_.Complete(viewer, partial_text, options_.max_completions);
  response.corrections = correction_.CorrectIdentifiers(partial_text);
  auto recs = Recommend(viewer, partial_text, options_.max_recommendations);
  if (recs.ok()) response.recommendations = std::move(recs).value();
  return response;
}

Result<std::vector<Recommendation>> AssistedComposer::Recommend(
    const std::string& viewer, const std::string& sql_text, size_t k) const {
  return recommendation_.Recommend(viewer, sql_text, k, options_.recommend);
}

}  // namespace cqms::assist
