#include "client/browse.h"

#include "common/string_util.h"

namespace cqms::client {

namespace {

std::string Truncate(const std::string& s, size_t width) {
  if (s.size() <= width) return s;
  return s.substr(0, width - 3) + "...";
}

}  // namespace

std::string RenderLogSummary(const storage::QueryStore& store,
                             const std::vector<miner::Session>& sessions,
                             const std::string& viewer, size_t max_sessions) {
  std::string out = "Query log (viewed by " + viewer + ")\n";
  size_t shown = 0;
  // One ACL resolution per owner across all rendered sessions.
  storage::VisibilityCache cache(storage::StoreView(store), viewer);
  for (auto it = sessions.rbegin(); it != sessions.rend(); ++it) {
    if (shown >= max_sessions) break;
    const miner::Session& s = *it;
    std::vector<storage::QueryId> visible;
    for (storage::QueryId id : s.queries) {
      if (cache.VisibleId(id)) visible.push_back(id);
    }
    if (visible.empty()) continue;
    ++shown;
    Micros span = (s.end - s.start) / kMicrosPerMinute;
    out += "session #" + std::to_string(s.id) + "  user=" + s.user + "  " +
           std::to_string(visible.size()) + " queries over " +
           std::to_string(span) + " min\n";
    const storage::QueryRecord* first = store.Get(visible.front());
    const storage::QueryRecord* last = store.Get(visible.back());
    if (first != nullptr) out += "  starts: " + Truncate(first->text, 68) + "\n";
    if (last != nullptr && last != first) {
      out += "  ends:   " + Truncate(last->text, 68) + "\n";
    }
  }
  if (shown == 0) out += "(no visible sessions)\n";
  return out;
}

std::string RenderQueryDetails(const storage::QueryStore& store,
                               storage::QueryId id) {
  const storage::QueryRecord* r = store.Get(id);
  if (r == nullptr) return "(no such query)\n";
  std::string out = "Query q" + std::to_string(id) + " by " + r->user + "\n";
  out += "  text: " + r->text + "\n";
  out += "  status: " + std::string(r->stats.succeeded ? "ok" : "FAILED") + "\n";
  if (!r->stats.error.empty()) out += "  error: " + r->stats.error + "\n";
  out += "  executed in " + std::to_string(r->stats.execution_micros) +
         " us, " + std::to_string(r->stats.result_rows) + " rows (" +
         std::to_string(r->stats.rows_scanned) + " scanned)\n";
  out += "  quality: " + std::to_string(r->quality) + "\n";
  if (r->session_id != storage::kInvalidSessionId) {
    out += "  session: #" + std::to_string(r->session_id) + "\n";
  }
  if (r->flags != storage::kFlagNone) {
    out += "  flags:";
    if (r->HasFlag(storage::kFlagSchemaBroken)) out += " schema-broken";
    if (r->HasFlag(storage::kFlagRepaired)) out += " repaired";
    if (r->HasFlag(storage::kFlagObsolete)) out += " obsolete";
    if (r->HasFlag(storage::kFlagStatsStale)) out += " stats-stale";
    if (r->HasFlag(storage::kFlagDeleted)) out += " deleted";
    out += "\n";
  }
  if (!r->stats.plan.empty()) {
    out += "  plan:\n";
    for (const std::string& line : Split(r->stats.plan, '\n')) {
      if (!line.empty()) out += "    " + line + "\n";
    }
  }
  if (!r->summary.column_names.empty()) {
    out += "  output: " + std::to_string(r->summary.total_rows) + " rows";
    out += r->summary.complete ? " (stored completely)\n"
                               : " (sample of " +
                                     std::to_string(r->summary.sample_rows.size()) +
                                     ")\n";
    size_t show = std::min<size_t>(3, r->summary.sample_rows.size());
    for (size_t i = 0; i < show; ++i) {
      out += "    " + db::RowToString(r->summary.sample_rows[i]) + "\n";
    }
  }
  for (const storage::Annotation& a : r->annotations) {
    out += "  note (" + a.author + "): " + a.text +
           (a.fragment.empty() ? "" : " [on: " + a.fragment + "]") + "\n";
  }
  return out;
}

std::string RenderClusters(const storage::QueryStore& store,
                           const miner::Clustering& clustering,
                           const std::string& viewer, size_t max_clusters) {
  std::string out = "Query clusters\n";
  for (size_t i = 0; i < clustering.clusters.size() && i < max_clusters; ++i) {
    storage::QueryId medoid = clustering.medoids[i];
    if (!store.Visible(viewer, medoid)) continue;
    const storage::QueryRecord* r = store.Get(medoid);
    if (r == nullptr) continue;
    out += "cluster " + std::to_string(i) + " (" +
           std::to_string(clustering.clusters[i].size()) + " queries): " +
           Truncate(r->text, 64) + "\n";
  }
  return out;
}

}  // namespace cqms::client
