#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "stats.h"

namespace perfbench {

/// Named metrics of one run, in the order they were added. `samples` is
/// the number of measurements behind a value (0 for counts and ratios);
/// `note` qualifies it (e.g. which percentile a tail is).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
  std::string note;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, const std::string& note = "");
  /// `<prefix>_p50_us` and `<prefix>_tail_us` of a distribution in
  /// microseconds (0 when it is empty).
  void AddLatency(const std::string& prefix, const Distribution& d);
  /// Value of `name`; 0 when absent.
  double Get(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Replaces the metric of the same name, or adds it.
  void Put(const Metric& metric);

 private:
  std::vector<Metric> metrics_;
};

/// Label of a distribution's tail percentile ("p99", "p90", "max").
std::string TailLabel(const Distribution& d);

/// Before/after view of the process-wide obs::MetricsRegistry. A series
/// name matches a `family` when it equals it or extends it with
/// embedded labels (`family{...}`).
class RegistryDelta {
 public:
  void Begin() { before_ = Take(); }
  void End() { after_ = Take(); }

  double Counter(const std::string& family) const;
  double HistogramSum(const std::string& family) const;
  double HistogramCount(const std::string& family) const;

 private:
  using Snapshot = std::map<std::string, cqms::obs::MetricSample>;
  static Snapshot Take();
  template <typename Field>
  double Delta(const std::string& family, Field field) const;

  Snapshot before_;
  Snapshot after_;
};

/// x / y, or 0 when y is 0 (ratios over work that did not happen).
inline double Ratio(double x, double y) { return y == 0 ? 0 : x / y; }

/// Returns freed heap to the system and restarts this process's peak
/// resident set size at its current size (Linux clear_refs). False if
/// the kernel refused.
bool ResetPeakRss();

/// Peak resident set size of this process since the last ResetPeakRss,
/// in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
