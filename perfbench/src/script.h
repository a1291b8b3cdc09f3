#ifndef PERFBENCH_SCRIPT_H_
#define PERFBENCH_SCRIPT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "core/cqms.h"
#include "net/wire.h"

namespace perfbench {

namespace net = cqms::net;
namespace storage = cqms::storage;

/// Rows per large table of the lab database. Small, so that an executed
/// query costs tens of microseconds and preload time stays dominated by
/// profiling and indexing rather than by joins.
constexpr size_t kLabRowsPerTable = 20;

/// A CQMS instance holding the seeded synthetic lab: the limnology
/// database, 8 users in 3 groups, and a query log generated by
/// workload::GenerateLog (exploration sessions with typos and
/// annotations). The log's simulated clock stays at the last generated
/// timestamp, so later appends share one timestamp.
struct Lab {
  cqms::SimulatedClock clock{0};
  std::unique_ptr<cqms::Cqms> cqms;
};

std::unique_ptr<Lab> BuildLab(size_t sessions, uint64_t seed);

/// One query of a generated exploration session, in submission order.
struct ScriptQuery {
  std::string user;
  std::string text;
  size_t session = 0;
};

/// Query texts of `sessions` freshly generated exploration sessions
/// (generated on a throwaway instance; typos included).
std::vector<ScriptQuery> GenerateSessionQueries(size_t sessions, uint64_t seed);

enum class Kind : uint8_t {
  kSearch,
  kRecommend,
  kAppend,
  kAnnotate,
  kSetVisibility,
  kCheckpoint,
};
constexpr size_t kNumKinds = 6;
const char* KindName(Kind kind);

/// One client operation of a workload script. The server only ever sees
/// the request built from these fields.
struct Op {
  Kind kind = Kind::kSearch;
  uint32_t conn = 0;   ///< Connection (and load-generator thread).
  int64_t due_us = 0;  ///< Open loop: send time, from the run's start.
  std::string user;    ///< Viewer, author or requester.
  std::string text;    ///< Recommend probe, appended SQL, annotation.
  net::SearchSpec spec;  ///< kSearch.
  /// kAnnotate / kSetVisibility: index of the target among the appends
  /// this script acked earlier (per connection for closed-loop sessions,
  /// global for the import).
  uint32_t target = 0;
  storage::Visibility visibility = storage::Visibility::kGroup;
};

/// Canonical bytes of a script (the seed-determinism self-test compares
/// these). Search specs are serialized with the wire codec.
std::string SerializeScript(const std::vector<Op>& ops);

/// explore_read: `n` read ops over the lab's log, Poisson arrivals at
/// `rate_per_s`, round-robin over `conns` connections. The mix is
/// keyword 20%, feature 15%, structural 15%, similarity 25% searches
/// and Recommend(k=5) 25%, all probes drawn from logged queries.
std::vector<Op> BuildExploreScript(const storage::QueryStore& store,
                                   uint64_t seed, size_t n, double rate_per_s,
                                   uint32_t conns);

/// session_mixed: `n` ops split evenly over `conns` closed-loop
/// connections. Each connection walks its own exploration sessions: it
/// appends the session's next query (executed) and asks Recommend on
/// the same text, searches around it, or annotates one of its own
/// earlier appends, at roughly 35/35/25/5.
std::vector<Op> BuildSessionScript(const std::vector<ScriptQuery>& queries,
                                   uint64_t seed, size_t n, uint32_t conns);

/// durable_ingest: `n` ops of a historical import — log-only appends of
/// `queries` (88%), Annotate (8%) and SetVisibility (4%) on appends of
/// the same import, and a Checkpoint every `checkpoint_every` ops.
std::vector<Op> BuildIngestScript(const std::vector<ScriptQuery>& queries,
                                  uint64_t seed, size_t n,
                                  size_t checkpoint_every);

/// A search spec derived from a logged query, by `search_class`: 0 its
/// table and attribute names as keywords, 1 its table and one selection
/// predicate as features, 2 its tables and grouping as a structural
/// pattern, 3 its text as a similarity probe. Ten results per page.
net::SearchSpec SpecFromProbe(const storage::QueryRecord& probe,
                              int search_class, cqms::Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_SCRIPT_H_
