#include "selftest.h"

#include <chrono>
#include <map>
#include <thread>

#include "analysis.h"
#include "loadgen.h"
#include "script.h"
#include "stats.h"

namespace perfbench {

namespace {

/// Every script builder, on inputs derived from `seed` alone.
std::string ScriptBytes(uint64_t seed) {
  std::unique_ptr<Lab> lab = BuildLab(30, seed);
  std::string bytes =
      SerializeScript(BuildExploreScript(*lab->cqms->store(), seed, 200, 400, 4));
  const std::vector<ScriptQuery> queries = GenerateSessionQueries(20, seed);
  bytes += SerializeScript(BuildSessionScript(queries, seed, 200, 4));
  bytes += SerializeScript(BuildIngestScript(queries, seed, 200, 50));
  return bytes;
}

void CheckScriptDeterminism(std::vector<std::string>* errors) {
  const std::string a = ScriptBytes(11);
  if (a.empty() || ScriptBytes(11) != a) {
    errors->push_back("selftest: seed 11 does not give a byte-identical script");
  }
  if (ScriptBytes(12) == a) {
    errors->push_back("selftest: seeds 11 and 12 give the same script");
  }
}

void CheckPercentiles(std::vector<std::string>* errors) {
  auto ramp = [](size_t n) {
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    return v;
  };
  // 1000 samples: p99 is rank 990, with exactly ten samples beyond it.
  Distribution d = Summarize(ramp(1000));
  if (d.count != 1000 || d.tail_pct != 99 || d.tail != 990 || d.p50 != 500) {
    errors->push_back("selftest: percentile helper, 1000 samples");
  }
  // 999 samples leave only nine beyond p99: the tail falls back to p95.
  d = Summarize(ramp(999));
  if (d.count != 999 || d.tail_pct != 95 || d.tail != 950) {
    errors->push_back("selftest: percentile helper, 999 samples");
  }
  // 10000 samples support p99.9 (rank 9990).
  d = Summarize(ramp(10000));
  if (d.tail_pct != 99.9 || d.tail != 9990) {
    errors->push_back("selftest: percentile helper, 10000 samples");
  }
  // Too few samples for any tail percentile: report the maximum.
  d = Summarize(ramp(50));
  if (d.tail_pct != 0 || d.tail != 50) {
    errors->push_back("selftest: percentile helper, 50 samples");
  }
}

/// A connection that answers request k `delay_us[k]` after it was sent
/// (at once past the end of the list), in order of readiness, as the
/// daemon's workers answer out of order.
class ScriptedChannel : public Channel {
 public:
  explicit ScriptedChannel(std::vector<int64_t> delay_us)
      : delay_us_(std::move(delay_us)) {}
  void Send(const Op&, storage::QueryId, Outcome* out) override {
    const int64_t delay = sent_ < delay_us_.size() ? delay_us_[sent_] : 0;
    ++sent_;
    pending_.emplace(NowMicros() + delay, out);
  }
  bool Flush() override { return true; }
  Outcome* Receive() override {
    const auto first = pending_.begin();
    std::this_thread::sleep_for(
        std::chrono::microseconds(first->first - NowMicros()));
    Outcome* out = first->second;
    pending_.erase(first);
    out->ok = true;
    return out;
  }

 private:
  std::vector<int64_t> delay_us_;
  size_t sent_ = 0;
  std::multimap<int64_t, Outcome*> pending_;  ///< By ready time.
};

/// An open loop over ops due at `due_us`, answered by `channel`.
Traffic RunScripted(const std::vector<int64_t>& due_us, Channel* channel) {
  Traffic traffic;
  traffic.open_loop = true;
  for (int64_t due : due_us) {
    Op op;
    op.due_us = due;
    traffic.ops.push_back(op);
  }
  traffic.outs.resize(traffic.ops.size());
  std::vector<const Op*> ops;
  std::vector<Outcome*> outs;
  for (size_t i = 0; i < traffic.ops.size(); ++i) {
    ops.push_back(&traffic.ops[i]);
    outs.push_back(&traffic.outs[i]);
  }
  traffic.start_us = NowMicros();
  RunOpenLoop(channel, ops, traffic.start_us, outs);
  return traffic;
}

void CheckOpenLoopCharging(std::vector<std::string>* errors) {
  constexpr int64_t kStallUs = 30000;
  // The first response stalls; every op due before it returned waited
  // for it, and its latency from the due time must include the rest of
  // the stall.
  ScriptedChannel stalling({kStallUs});
  Traffic traffic = RunScripted({0, 2000, 4000, 6000, 8000}, &stalling);
  for (size_t i = 0; i < traffic.ops.size(); ++i) {
    if (LatencyMicros(traffic, i) < kStallUs - traffic.ops[i].due_us) {
      errors->push_back("selftest: open-loop op " + std::to_string(i) +
                        " is not charged from its due time");
    }
  }
  // Two requests in flight together: the second is answered at once and
  // must be stamped when it arrives, not behind the stalled first one.
  ScriptedChannel out_of_order({kStallUs, 0});
  traffic = RunScripted({0, 0}, &out_of_order);
  if (LatencyMicros(traffic, 1) >= kStallUs / 2 ||
      LatencyMicros(traffic, 0) < kStallUs) {
    errors->push_back(
        "selftest: open-loop responses are not stamped in arrival order");
  }
}

}  // namespace

std::vector<std::string> RunSelfTests() {
  std::vector<std::string> errors;
  CheckScriptDeterminism(&errors);
  CheckPercentiles(&errors);
  CheckOpenLoopCharging(&errors);
  return errors;
}

}  // namespace perfbench
