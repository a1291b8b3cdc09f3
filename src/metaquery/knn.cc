#include "metaquery/knn.h"

#include <algorithm>

#include "obs/metrics.h"

namespace cqms::metaquery {

namespace {

// Candidate-generation health series: how often the sub-linear LSH path
// actually runs, how many band buckets it probes, how fat its candidate
// sets are, and how often a probe degrades to table-union or full scan.
struct KnnSeries {
  obs::Counter* lsh_probes;
  obs::Counter* lsh_bands_probed;
  obs::Counter* lsh_candidates;
  obs::Counter* table_union_fallbacks;
  obs::Counter* full_scan_fallbacks;
};

const KnnSeries& Series() {
  static const KnnSeries s = [] {
    auto& reg = obs::MetricsRegistry::Global();
    KnnSeries k;
    k.lsh_probes = reg.GetCounter("cqms_knn_lsh_probes_total");
    k.lsh_bands_probed = reg.GetCounter("cqms_knn_lsh_bands_probed_total");
    k.lsh_candidates = reg.GetCounter("cqms_knn_lsh_candidates_total");
    k.table_union_fallbacks =
        reg.GetCounter("cqms_knn_table_union_fallbacks_total");
    k.full_scan_fallbacks =
        reg.GetCounter("cqms_knn_full_scan_fallbacks_total");
    return k;
  }();
  return s;
}

}  // namespace

KnnCandidates KnnCandidateIds(const storage::StoreView& store,
                              const storage::QueryRecord& probe,
                              const CandidateOptions& options) {
  KnnCandidates out;
  if (!probe.parse_failed() && !probe.components.tables.empty()) {
    bool use_lsh =
        options.use_lsh && store.size() >= options.lsh_min_log_size;
    if (use_lsh && probe.sketch.valid && !probe.sketch.empty()) {
      out.ids = store.LshCandidates(probe.sketch, options.probe_bands);
      out.source = KnnCandidateSource::kLshBuckets;
      const KnnSeries& s = Series();
      s.lsh_probes->Increment();
      size_t index_bands = store.lsh().bands();
      s.lsh_bands_probed->Add(options.probe_bands == 0
                                  ? index_bands
                                  : std::min(options.probe_bands, index_bands));
      s.lsh_candidates->Add(out.ids.size());
      return out;
    }
    // The probe signature's tables are the interned Symbols the posting
    // lists are keyed by (transient probes resolve known tables to their
    // real ids, so unseen tables simply have no postings). Hand-built
    // records without a signature fall back to the string lookup.
    out.ids = probe.signature.valid
                  ? store.QueriesUsingAnyTableSymbol(probe.signature.tables)
                  : store.QueriesUsingAnyTable(probe.components.tables);
    out.source = KnnCandidateSource::kTableUnion;
    Series().table_union_fallbacks->Increment();
    return out;
  }
  out.source = KnnCandidateSource::kFullScan;
  Series().full_scan_fallbacks->Increment();
  return out;
}

}  // namespace cqms::metaquery
