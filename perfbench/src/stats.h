#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Monotonic microseconds (steady clock); every timestamp the benchmark
/// records uses this one clock.
inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A timing distribution as the benchmark reports it: the median and
/// the highest standard percentile (99.9, 99, 95, 90) that has at least
/// ten samples beyond it, plus the sample count. `tail_pct` is 0 when
/// even p90 is unsupported (fewer than 100 samples); `tail` then repeats
/// the maximum.
struct Distribution {
  size_t count = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
  double p99 = 0;  ///< 0 unless p99 has ten samples beyond it.
  double mean = 0;
};

Distribution Summarize(std::vector<double> samples);

/// Nearest-rank percentile `pct` (0-100] of `v`; 0 when `v` is empty.
double Percentile(std::vector<double> v, double pct);
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
