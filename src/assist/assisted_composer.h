#ifndef CQMS_ASSIST_ASSISTED_COMPOSER_H_
#define CQMS_ASSIST_ASSISTED_COMPOSER_H_

#include <string>
#include <vector>

#include "assist/completion.h"
#include "assist/correction.h"
#include "assist/recommend.h"

namespace cqms::assist {

/// Everything the Figure-3 client pane shows for the current text state:
/// completions, corrections and similar-query recommendations.
struct AssistResponse {
  std::vector<CompletionSuggestion> completions;
  std::vector<Correction> corrections;
  std::vector<Recommendation> recommendations;
};

struct AssistOptions {
  size_t max_completions = 8;
  size_t max_recommendations = 5;
  RecommendOptions recommend;
};

/// The Assisted Interaction Mode facade (§2.3): one call per keystroke /
/// pause returns everything the client needs to render.
class AssistedComposer {
 public:
  /// All pointers must outlive the composer; `miner` may be null.
  AssistedComposer(const storage::QueryStore* store, const db::Database* database,
                   const miner::QueryMiner* miner, AssistOptions options = {});

  /// Computes suggestions for the partial text `viewer` has typed.
  /// Recommendations require the text to parse; completions and
  /// corrections work on any prefix.
  AssistResponse Assist(const std::string& viewer,
                        const std::string& partial_text) const;

  /// Up to `k` recommendations for `sql_text` under the configured
  /// RecommendOptions — the recommendation part of Assist on its own.
  Result<std::vector<Recommendation>> Recommend(const std::string& viewer,
                                                const std::string& sql_text,
                                                size_t k) const;

 private:
  CompletionEngine completion_;
  CorrectionEngine correction_;
  RecommendationEngine recommendation_;
  AssistOptions options_;
};

}  // namespace cqms::assist

#endif  // CQMS_ASSIST_ASSISTED_COMPOSER_H_
