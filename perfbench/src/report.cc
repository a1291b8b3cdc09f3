#include "report.h"

#include <malloc.h>

#include <cstdio>
#include <fstream>

namespace perfbench {

void Report::Add(const std::string& name, double value, const std::string& unit,
                 size_t samples, const std::string& note) {
  metrics_.push_back({name, value, unit, samples, note});
}

std::string TailLabel(const Distribution& d) {
  if (d.tail_pct == 0) return "max";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", d.tail_pct);
  return buf;
}

void Report::AddLatency(const std::string& prefix, const Distribution& d) {
  Add(prefix + "_p50_us", d.p50, "us", d.count, "p50");
  Add(prefix + "_tail_us", d.tail, "us", d.count, TailLabel(d));
}

double Report::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void Report::Put(const Metric& metric) {
  for (Metric& m : metrics_) {
    if (m.name == metric.name) {
      m = metric;
      return;
    }
  }
  metrics_.push_back(metric);
}

RegistryDelta::Snapshot RegistryDelta::Take() {
  Snapshot out;
  for (cqms::obs::MetricSample& s :
       cqms::obs::MetricsRegistry::Global().Snapshot()) {
    std::string name = s.name;
    out.emplace(std::move(name), std::move(s));
  }
  return out;
}

namespace {

bool InFamily(const std::string& name, const std::string& family) {
  return name.compare(0, family.size(), family) == 0 &&
         (name.size() == family.size() || name[family.size()] == '{');
}

}  // namespace

template <typename Field>
double RegistryDelta::Delta(const std::string& family, Field field) const {
  double total = 0;
  for (const auto& [name, sample] : after_) {
    if (!InFamily(name, family)) continue;
    total += static_cast<double>(field(sample));
    auto it = before_.find(name);
    if (it != before_.end()) total -= static_cast<double>(field(it->second));
  }
  return total;
}

double RegistryDelta::Counter(const std::string& family) const {
  return Delta(family, [](const cqms::obs::MetricSample& s) { return s.value; });
}

double RegistryDelta::HistogramSum(const std::string& family) const {
  return Delta(family, [](const cqms::obs::MetricSample& s) { return s.sum; });
}

double RegistryDelta::HistogramCount(const std::string& family) const {
  return Delta(family, [](const cqms::obs::MetricSample& s) { return s.count; });
}

bool ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";  // Reset the peak RSS (VmHWM) to the current RSS.
  f.flush();
  return f.good();
}

double PeakRssMb() {
  // getrusage's ru_maxrss is never reset, so read VmHWM instead.
  std::ifstream f("/proc/self/status");
  std::string key;
  double kib = 0;
  while (f >> key) {
    if (key == "VmHWM:") {
      f >> kib;
      break;
    }
    f.ignore(1 << 20, '\n');
  }
  return kib / 1024.0;
}

}  // namespace perfbench
