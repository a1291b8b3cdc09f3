#ifndef PERFBENCH_ANALYSIS_H_
#define PERFBENCH_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cqms.h"
#include "loadgen.h"
#include "net/wire.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

/// The ops of one measured pass and what the client saw for each.
struct Traffic {
  std::vector<Op> ops;
  std::vector<Outcome> outs;
  int64_t start_us = 0;  ///< Open loop: the schedule's origin.
  int64_t end_us = 0;    ///< Last response.
  bool open_loop = false;

  double wall_us() const { return static_cast<double>(end_us - start_us); }
  /// Acked mutations (appends, annotations, visibility changes).
  uint64_t AckedMutations() const;
};

/// Latency of op i as the user sees it: from its due time (open loop)
/// or its send time (closed loop) to its response.
int64_t LatencyMicros(const Traffic& traffic, size_t i);

/// Adds the traffic's attempts and failures to `result`.
void CountOutcomes(const Traffic& traffic, RunResult* result);

/// ops_per_s: completed ops per wall second, percentile `pct` over
/// windows of kOpsPerWindow ops of one or more passes. Interference from
/// outside the benchmark only ever slows a window, and slows some windows
/// and not others; a slower program slows them all.
void AddThroughput(const std::vector<const Traffic*>& traffics, double pct,
                   RunResult* result);

/// The latency of all ops (client.latency_*, median over the same
/// windows) and per op (client.<op>_*), storage.checkpoint_rtt_ms_p50,
/// profiler.exec_us_mean and loadgen.* over one or more passes of a
/// workload; counts attempts and failures into `result`.
void AddClientMetrics(const std::vector<const Traffic*>& traffics,
                      RunResult* result);

/// Per-layer metrics from registry and server-stats deltas over the
/// pass (net, metaquery, storage, miner, repl counters, profiler).
void AddLayerMetrics(const Traffic& traffic, const RegistryDelta& registry,
                     const net::StatsResult& before,
                     const net::StatsResult& after, Report* report);

/// metaquery.* span/funnel metrics and server.search_overhead_us_p50
/// from the planner traces returned with traced searches.
void AddTraceMetrics(const Traffic& traffic, Report* report);

/// Times the public calls behind sampled ops in process, after the
/// pass: wire codec round trips (net.codec_us_per_op), probe parsing
/// (sql.parse_us), view pins (storage.pin_ns) and the planner part of
/// Recommend (server.recommend_overhead_us_p50).
void AddReplayMetrics(cqms::Cqms* cqms, const Traffic& traffic,
                      Report* report);

/// Writes the pass's spans as JSON lines: one client span per request
/// and, for traced searches, one child span per planner stage.
void WriteSpans(const std::string& path, const Traffic& traffic);

/// The Recommend answer the daemon must give, computed in process the
/// way its handler does (similarity search, parse and duplicate
/// filtering). Ids and texts, in rank order.
std::vector<std::pair<cqms::storage::QueryId, std::string>> RecommendOracle(
    const cqms::Cqms& cqms, const std::string& viewer, const std::string& text,
    size_t k);

}  // namespace perfbench

#endif  // PERFBENCH_ANALYSIS_H_
