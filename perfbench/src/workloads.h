#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// Daemon read-worker threads (ServerOptions::workers), fixed for every
/// workload.
constexpr size_t kServerWorkers = 4;
/// Client connections (and load-generator threads) of the multi-client
/// workloads.
constexpr uint32_t kConns = 4;

/// Sessions generated into the preloaded log of explore_read and
/// session_mixed (about 21k records).
constexpr size_t kLogSessions = 3500;
/// explore_read offered load, requests per second (open loop), and the
/// open loop's ops per --seconds: it lasts half of them.
constexpr double kExploreRatePerS = 1250;
constexpr size_t kExploreOpenOpsPerS = 625;
/// explore_read saturation pass: connections, one request outstanding on
/// each, and ops per --seconds. Three busy connections leave a vCPU of
/// the four for the daemon's I/O thread and the load generator, so the
/// pass measures the read path, not the scheduler. At --seconds 10 it
/// ran about 10 s on a shared 4-vCPU x86 VM.
constexpr uint32_t kSaturationConns = 3;
constexpr size_t kSaturationOpsPerS = 3000;
/// Ops per --seconds of session_mixed and of one durable_ingest round.
/// At --seconds 10 a session_mixed pass ran about 25 s and a
/// durable_ingest round about 1.2 s on a shared 4-vCPU x86 VM.
constexpr size_t kSessionOpsPerS = 500;
constexpr size_t kIngestOpsPerS = 110;
/// Run figures are taken over consecutive windows of this many ops, so
/// that each window's p99 has ten samples beyond it; every pass runs at
/// least kMinOps ops. Latency is the median over windows; ops_per_s of
/// explore_read and session_mixed is the upper quartile, so that a
/// spell of outside load over up to a quarter of the pass does not move
/// it.
constexpr size_t kOpsPerWindow = 1000;
constexpr double kThroughputPct = 75;
constexpr size_t kMinOps = 3 * kOpsPerWindow + 100;

/// durable_ingest: historical records logged before the daemon starts,
/// and a Checkpoint every this many ops of the import.
constexpr size_t kIngestPreload = 300;
constexpr size_t kCheckpointEvery = 500;
/// Import rounds per durable_ingest pass, each from a fresh cluster.
/// Short rounds keep the log small (300 to about 1300 records), so that
/// view publish stays cheap and the WAL, fsync and shipping dominate.
/// Each round is one window, and ops_per_s is the fastest round's rate:
/// every round is the same import, and on a shared host a spell of
/// outside CPU or disk load slowed most rounds of a run threefold.
constexpr size_t kIngestRounds = 16;

/// setup_s is the median of this many setups per run: one per
/// durable_ingest round, or the lab run's own and then more in process
/// after the run.
/// The lab log of explore_read and session_mixed takes seconds to build,
/// the small durable cluster a fraction of one, with fsync noise.
constexpr size_t kLabSetups = 5;
constexpr size_t kClusterSetups = kIngestRounds;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  /// Traced pass: planner traces on every search, spans written to
  /// `work_dir`/spans, in-process replay of sampled ops.
  bool traced = false;
  /// Passes of a --trace 1 run, which makes two: half the ops and one
  /// durable_ingest round each, to keep the run within its time limit.
  /// Per-layer figures are means, ratios and per-op splits.
  bool quick = false;
  /// Scratch directory for durable state and span files.
  std::string work_dir;
};

struct RunResult {
  Report report;
  /// Seconds each setup of the run's starting state took.
  std::vector<double> setups;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed correctness checks (empty when every check passed).
  std::vector<std::string> errors;
};

/// One pass of a workload from a fresh daemon: builds the starting state
/// (adding its time to `setups`), runs the script and checks the outputs.
RunResult RunExploreRead(const Config& config);
RunResult RunSessionMixed(const Config& config);
RunResult RunDurableIngest(const Config& config);

/// Builds the workload's starting state, starts its daemon(s), tears
/// them down and returns the seconds the build and start took.
double TimeSetup(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
