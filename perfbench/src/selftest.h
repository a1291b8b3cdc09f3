#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's own checks, run before every measurement (well under
/// a second): script determinism per seed, the percentile helper's
/// tail rule, and open-loop latency charged from the due time. Returns
/// one message per failed check.
std::vector<std::string> RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
