// Observability overhead benchmarks: the registry primitives that sit
// on hot paths (counter add, histogram record, resolved-pointer
// lookup), the exposition encoder, and the headline pair — the same
// planner request executed untraced (trace == nullptr, the always-on
// production path) vs traced (ExecTrace attached). The untraced series
// is the one the <3% regression gate compares against the pre-obs
// baseline; the traced delta prices `--explain` / slow-query logging.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "metaquery/meta_query_executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/record_builder.h"

namespace cqms::bench {
namespace {

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench_obs_counter_total");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram* hist =
      obs::MetricsRegistry::Global().GetHistogram("bench_obs_micros");
  uint64_t v = 1;
  for (auto _ : state) {
    hist->Record(v);
    v = (v * 2862933555777941757ull + 3037000493ull) >> 40;  // cheap lcg
  }
  benchmark::DoNotOptimize(hist->count());
}
BENCHMARK(BM_HistogramRecord);

void BM_RegistryLookup(benchmark::State& state) {
  // The cost a call site pays when it does NOT cache the pointer —
  // motivates the function-local-static idiom the instrumentation uses.
  auto& reg = obs::MetricsRegistry::Global();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.GetCounter("bench_obs_lookup_total"));
  }
}
BENCHMARK(BM_RegistryLookup);

void BM_ExpositionText(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::Global();
  // Ensure a realistic series population (the planner/WAL/miner series
  // plus some bench-local ones).
  for (int i = 0; i < 32; ++i) {
    reg.GetCounter("bench_obs_expo_" + std::to_string(i) + "_total")->Add(i);
  }
  for (auto _ : state) {
    std::string text = reg.ExpositionText();
    benchmark::DoNotOptimize(text.data());
  }
}
BENCHMARK(BM_ExpositionText);

/// One keyword+ranked request through the executor; `traced` attaches a
/// fresh ExecTrace per iteration (the per-request cost a client pays for
/// --explain, including the span clock reads).
void RunPlannerSearch(benchmark::State& state, bool traced) {
  LogFixture& fixture = GetFixture(5000);
  metaquery::MetaQueryExecutor executor(&fixture.store);
  uint64_t matches = 0;
  for (auto _ : state) {
    metaquery::MetaQueryRequest req;
    req.WithKeywords("lake temp", true).Limit(10);
    obs::ExecTrace trace;
    if (traced) req.trace = &trace;
    metaquery::MetaQueryResponse resp = executor.Execute("user1", req);
    matches += resp.matches.size();
    benchmark::DoNotOptimize(resp.candidates_considered);
  }
  state.counters["matches"] =
      benchmark::Counter(static_cast<double>(matches),
                         benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
}

void BM_SearchUntraced(benchmark::State& state) {
  RunPlannerSearch(state, /*traced=*/false);
}
BENCHMARK(BM_SearchUntraced);

void BM_SearchTraced(benchmark::State& state) {
  RunPlannerSearch(state, /*traced=*/true);
}
BENCHMARK(BM_SearchTraced);

}  // namespace
}  // namespace cqms::bench

BENCHMARK_MAIN();
