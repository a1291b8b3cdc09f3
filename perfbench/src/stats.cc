#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {

namespace {

size_t Rank(size_t n, double pct) {
  // Nearest rank, 1-based; the epsilon keeps 99% of 1000 at rank 990
  // despite binary rounding of pct / 100.
  double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

/// Nearest-rank percentile of sorted, non-empty `v`.
double NearestRank(const std::vector<double>& sorted, double pct) {
  return sorted[Rank(sorted.size(), pct) - 1];
}

/// Samples strictly above the nearest-rank `pct` position in n samples.
size_t SamplesBeyond(size_t n, double pct) { return n - Rank(n, pct); }

}  // namespace

Distribution Summarize(std::vector<double> samples) {
  Distribution d;
  d.count = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = NearestRank(samples, 50);
  d.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  if (SamplesBeyond(samples.size(), 99) >= 10) d.p99 = NearestRank(samples, 99);
  d.tail = samples.back();
  for (double pct : {99.9, 99.0, 95.0, 90.0}) {
    if (SamplesBeyond(samples.size(), pct) >= 10) {
      d.tail = NearestRank(samples, pct);
      d.tail_pct = pct;
      break;
    }
  }
  return d;
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return NearestRank(v, pct);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

}  // namespace perfbench
