// Wall-clock benchmark of the CQMS daemon (cqms_serverd's in-process
// core) over loopback TCP. See perfbench/README.md.
//
//   perfbench --workload explore_read|session_mixed|durable_ingest
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints one line per metric, then, as the last line, a JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1
// when a correctness check fails.

#include <chrono>
#include <csignal>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "selftest.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed in the JSON result of an untraced run; BENCHMARK.json's
/// end_to_end list.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"rss_peak_mb", "MiB"},
};

/// Printed in the JSON result of a traced run; BENCHMARK.json's
/// per_layer list. A layer a workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"loadgen.late_p99_us", "us"},
    {"loadgen.ops_attempted", "count"},
    {"loadgen.ops_failed", "count"},
    {"loadgen.failed_frac", "ratio"},
    {"client.latency_p50_us", "us"},
    {"client.latency_p99_us", "us"},
    {"client.search_p50_us", "us"},
    {"client.search_tail_us", "us"},
    {"client.recommend_p50_us", "us"},
    {"client.recommend_tail_us", "us"},
    {"client.append_p50_us", "us"},
    {"client.append_tail_us", "us"},
    {"net.req_bytes_per_op", "B"},
    {"net.resp_bytes_per_op", "B"},
    {"net.codec_us_per_op", "us"},
    {"server.search_overhead_us_p50", "us"},
    {"server.recommend_overhead_us_p50", "us"},
    {"metaquery.resolve_us", "us"},
    {"metaquery.generate_us", "us"},
    {"metaquery.filter_score_us", "us"},
    {"metaquery.rank_us", "us"},
    {"metaquery.candidates_per_match", "ratio"},
    {"metaquery.lsh_candidates_per_probe", "count"},
    {"metaquery.vis_cache_hit_ratio", "ratio"},
    {"metaquery.fallbacks_per_search", "ratio"},
    {"sql.parse_us", "us"},
    {"profiler.exec_us_mean", "us"},
    {"storage.publish_us_mean", "us"},
    {"storage.publish_busy_frac", "ratio"},
    {"storage.publishes_per_mutation", "ratio"},
    {"storage.pin_ns", "ns"},
    {"storage.arena_garbage_mb", "MiB"},
    {"storage.wal_bytes_per_record", "B"},
    {"storage.checkpoints", "count"},
    {"storage.checkpoint_ms_mean", "ms"},
    {"storage.disk_bytes_per_record", "B"},
    {"storage.recover_s", "s"},
    {"env.writes_per_record", "ratio"},
    {"env.syncs_per_record", "ratio"},
    {"env.sync_us_mean", "us"},
    {"env.sync_busy_frac", "ratio"},
    {"repl.lag_p50_us", "us"},
    {"repl.lag_tail_us", "us"},
    {"repl.lag_records_max", "count"},
    {"repl.backlog_bytes_max", "B"},
    {"repl.snapshot_bootstraps", "count"},
    {"miner.refresh_ms_mean", "ms"},
    {"miner.pairs_computed", "count"},
    {"storage.checkpoint_rtt_ms_p50", "ms"},
    {"maintain.run_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

/// Ends the process if a run overshoots the benchmark's time limit, so a
/// wedged daemon cannot hang the caller.
class Watchdog {
 public:
  explicit Watchdog(int seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: over %d s, aborting\n", seconds);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               msg);
  std::exit(2);
}

void PrintMetric(const Metric& m) {
  std::printf("  %-36s %16.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
  if (!m.note.empty() || m.samples > 0) {
    std::printf(" (%s%sn=%zu)", m.note.c_str(), m.note.empty() ? "" : ", ",
                m.samples);
  }
  std::printf("\n");
}

template <size_t N>
void PrintJson(bool correct, const RunResult& r, const MetricSpec (&specs)[N]) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < N; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, r.report.Get(specs[i].name),
                specs[i].unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Config config;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  RunResult (*run)(const Config&) = nullptr;
  if (config.workload == "explore_read") run = RunExploreRead;
  if (config.workload == "session_mixed") run = RunSessionMixed;
  if (config.workload == "durable_ingest") run = RunDurableIngest;
  if (run == nullptr) Usage("unknown --workload");
  if (trace != 0 && trace != 1) Usage("--trace must be 0 or 1");
  if (config.seconds < 1 || config.work_dir.empty()) {
    Usage("--seconds must be positive and --work-dir set");
  }
  Watchdog watchdog(170);
  // As in cqms_serverd: a peer that hangs up must not kill the process
  // hosting the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  std::vector<std::string> errors = RunSelfTests();
  std::printf("perfbench %s seed=%llu seconds=%d trace=%d workers=%zu "
              "connections=%u\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              trace, kServerWorkers, kConns);
  RunResult result;
  if (trace == 0) {
    result = run(config);
    // The extra setups run after the pass, so that they stay out of its
    // rss_peak_mb.
    const size_t samples = config.workload == "durable_ingest"
                               ? kClusterSetups
                               : kLabSetups;
    while (result.setups.size() < samples) {
      result.setups.push_back(TimeSetup(config));
    }
  } else {
    // Per-layer numbers come from a traced pass; the untraced pass of
    // the same script gives the client-side split and the baseline for
    // the tracing overhead.
    config.quick = true;
    RunResult plain = run(config);
    config.traced = true;
    result = run(config);
    result.report.Add("trace.overhead_frac",
                      Ratio(result.report.Get("client.latency_p50_us"),
                            plain.report.Get("client.latency_p50_us")) -
                          1,
                      "ratio", 0, "traced vs untraced client.latency_p50_us");
    for (Metric m : plain.report.metrics()) {
      if (m.name.rfind("client.", 0) != 0) continue;
      m.note += ", untraced";
      result.report.Put(m);
    }
    result.setups.insert(result.setups.end(), plain.setups.begin(),
                         plain.setups.end());
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    result.errors.insert(result.errors.end(), plain.errors.begin(),
                         plain.errors.end());
  }
  result.report.Add("setup_s", Median(result.setups), "s",
                    result.setups.size(), "median");
  errors.insert(errors.end(), result.errors.begin(), result.errors.end());

  for (const Metric& m : result.report.metrics()) PrintMetric(m);
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  const bool correct = errors.empty();
  if (trace == 0) {
    PrintJson(correct, result, kEndToEnd);
  } else {
    PrintJson(correct, result, kPerLayer);
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
