#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/binary_codec.h"
#include "core/cqms.h"
#include "storage/durable_store.h"
#include "storage/fault_env.h"
#include "storage/wal.h"
#include "test_util.h"

namespace cqms::storage {
namespace {

using testing_util::Harness;

/// Small lake tables keep each crash-loop iteration (two Harness
/// constructions) cheap; the fingerprint below is row-count independent.
constexpr size_t kRows = 8;

/// Every store in the fault tests lives at this path inside a
/// FaultInjectingEnv — a private in-memory disk per test.
const char kDir[] = "/db";

const char* KindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kIoError: return "io_error";
    case FaultKind::kEnospc: return "enospc";
    case FaultKind::kShortWrite: return "short_write";
    case FaultKind::kCrash: return "crash";
  }
  return "?";
}

DurabilityOptions FaultOptions(FaultInjectingEnv* env) {
  DurabilityOptions options;
  options.env = env;
  // Power-loss recovery is only promised for synced records; the
  // acked-prefix invariant below is exact under this mode.
  options.fsync_each_record = true;
  return options;
}

// --- the scripted workload -------------------------------------------------

constexpr int kNumSteps = 24;

bool IsCheckpointStep(int step) { return step == 5 || step == 16; }

/// Applies workload step `step` to `h` (and checkpoints through
/// `durable` on checkpoint steps; the model run passes null and skips
/// them). Returns whether the step's durable effect succeeded — for
/// mutations that is always true (they apply in memory regardless), for
/// checkpoints it is the Checkpoint() status.
bool ApplyStep(Harness* h, DurableStore* durable, int step,
               std::vector<QueryId>* ids) {
  QueryStore& store = h->store;
  switch (step) {
    case 0: store.AddUser("alice", {"oceans"}); return true;
    case 1: store.AddUser("bob", {"lakes"}); return true;
    case 2:
      ids->push_back(h->Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18"));
      return true;
    case 3:
      ids->push_back(h->Log("bob", "SELECT * FROM CityLocations"));
      return true;
    case 4:
      ids->push_back(h->Log("alice", "SELEKT not sql"));  // parse failure, still logged
      return true;
    case 5:
    case 16:
      return durable == nullptr ? true : durable->Checkpoint().ok();
    case 6:
      return store
          .RewriteQueryText((*ids)[1],
                            "SELECT city FROM CityLocations WHERE city = 'oslo'")
          .ok();
    case 7: {
      Annotation note;
      note.author = "bob";
      note.timestamp = 42;
      note.text = "checked against the buoy feed";
      return store.Annotate((*ids)[1], note).ok();
    }
    // Flag steps are ordered so no prefix ever reverts to an earlier
    // one exactly — every fp[k] below stays unique (FindPrefix relies
    // on it to attribute a recovered image to one workload position).
    case 8: return store.AddFlag((*ids)[0], kFlagStatsStale).ok();
    case 9: return store.AddFlag((*ids)[0], kFlagRepaired).ok();
    case 10: return store.ClearFlag((*ids)[0], kFlagStatsStale).ok();
    case 11: return store.SetSession((*ids)[0], 3).ok();
    case 12: return store.SetQuality((*ids)[0], 0.8).ok();
    case 13:
      return store.SetVisibility((*ids)[0], "alice", Visibility::kPrivate).ok();
    case 14:
      ids->push_back(h->Log("bob", "SELECT city FROM CityLocations"));
      return true;
    case 15: return store.Delete((*ids)[2], "alice").ok();
    case 17:
      ids->push_back(h->Log("alice", "SELECT temp FROM WaterTemp"));
      return true;
    case 18: return store.AddFlag((*ids)[3], kFlagStatsStale).ok();
    case 19: {
      Annotation note;
      note.author = "alice";
      note.timestamp = 77;
      note.text = "cold-water sites only";
      note.fragment = "temp < 18";
      return store.Annotate((*ids)[0], note).ok();
    }
    case 20: return store.SetQuality((*ids)[1], 0.9).ok();
    case 21:
      ids->push_back(h->Log("bob", "SELECT * FROM WaterTemp"));
      return true;
    case 22:
      return store.SetVisibility((*ids)[1], "bob", Visibility::kPublic).ok();
    case 23: return store.SetSession((*ids)[3], 4).ok();
  }
  ADD_FAILURE() << "no such step " << step;
  return false;
}

/// A deterministic digest of everything durability must preserve.
/// Volatile fields (runtime stats carry wall-clock micros) are
/// deliberately excluded, so the digest is identical across reruns and
/// between an original store and its recovered twin.
std::string Fingerprint(const QueryStore& store) {
  std::ostringstream out;
  for (const QueryRecord& r : store.records()) {
    out << r.id << '|' << r.text << '|' << r.user << '|' << r.timestamp << '|'
        << r.session_id << '|' << r.flags << '|' << r.quality << '|'
        << r.parse_failed() << '|' << r.fingerprint << '|'
        << static_cast<int>(store.acl().GetVisibility(r.id));
    for (const Annotation& a : r.annotations) {
      out << '|' << a.author << '|' << a.timestamp << '|' << a.text << '|'
          << a.fragment;
    }
    out << '\n';
  }
  out << "--acl--\n";
  for (const auto& [user, groups] : store.acl().memberships()) {
    out << user;
    for (const std::string& g : groups) out << '|' << g;
    out << '\n';
  }
  return out.str();
}

/// fingerprints[k] = the store after the first k workload steps.
std::vector<std::string> BuildModel() {
  std::vector<std::string> fingerprints;
  Harness h(kRows);
  std::vector<QueryId> ids;
  fingerprints.push_back(Fingerprint(h.store));
  for (int step = 0; step < kNumSteps; ++step) {
    ApplyStep(&h, nullptr, step, &ids);
    fingerprints.push_back(Fingerprint(h.store));
    // Guard the FindPrefix contract: every mutation must move the
    // digest (only checkpoint steps may leave it unchanged).
    if (!IsCheckpointStep(step)) {
      EXPECT_NE(fingerprints[step + 1], fingerprints[step])
          << "step " << step << " left no durable trace";
    }
  }
  return fingerprints;
}

/// Largest k with fingerprints[k] == fp, or -1: which workload prefix a
/// recovered store corresponds to. Largest, because checkpoint steps do
/// not change the store, so fp[k] == fp[k+1] across them — and a
/// recovered image reached through a checkpoint legitimately counts as
/// the later position. All mutation steps have unique fingerprints.
int FindPrefix(const std::vector<std::string>& fingerprints,
               const std::string& fp) {
  for (size_t k = fingerprints.size(); k-- > 0;) {
    if (fingerprints[k] == fp) return static_cast<int>(k);
  }
  return -1;
}

struct RunResult {
  Status open_status;
  bool opened = false;
  /// Steps [0, acked_steps) are guaranteed recoverable: after each one
  /// either the WAL was clean (every frame synced) or a checkpoint had
  /// just captured the whole store.
  int acked_steps = 0;
};

/// Runs the scripted workload against `dir` inside `env`. Mutations
/// always apply in memory; `acked_steps` advances only while the disk
/// keeps confirming them.
RunResult RunWorkload(FaultInjectingEnv* env, const std::string& dir) {
  RunResult result;
  Harness h(kRows);
  DurableStore durable(&h.store, dir, FaultOptions(env));
  result.open_status = durable.Open();
  if (!result.open_status.ok()) return result;
  result.opened = true;
  std::vector<QueryId> ids;
  for (int step = 0; step < kNumSteps; ++step) {
    bool step_ok = ApplyStep(&h, &durable, step, &ids);
    if (IsCheckpointStep(step)) {
      // A successful checkpoint snapshots the in-memory store wholesale,
      // so everything up to here is durable even after earlier failures.
      if (step_ok) result.acked_steps = step + 1;
    } else if (durable.wal_error().ok()) {
      result.acked_steps = step + 1;
    }
  }
  return result;
}

/// Opens the store from whatever `env` currently holds and checks the
/// two core invariants: recovery is clean, and the recovered state is a
/// workload prefix no shorter than the acknowledged one. Then proves a
/// checkpoint repairs the installation (and a further reopen agrees).
void ExpectRecoversToPrefix(FaultInjectingEnv* env,
                            const std::vector<std::string>& fingerprints,
                            int acked_steps, const std::string& context) {
  Harness h(kRows);
  DurableStore durable(&h.store, kDir, FaultOptions(env));
  Status open = durable.Open();
  ASSERT_TRUE(open.ok()) << context << ": recovery failed: " << open.ToString();
  const std::string fp = Fingerprint(h.store);
  const int k = FindPrefix(fingerprints, fp);
  ASSERT_GE(k, 0) << context << ": recovered state is not a workload prefix";
  EXPECT_GE(k, acked_steps)
      << context << ": lost an acknowledged mutation (recovered prefix " << k
      << ", acknowledged " << acked_steps << ")";

  // A checkpoint from the recovered state must always succeed (the WAL
  // may have latched during replay-era faults; this is the repair) and
  // the repaired installation must reopen to the same state.
  Status repair = durable.Checkpoint();
  ASSERT_TRUE(repair.ok()) << context << ": post-recovery checkpoint failed: "
                           << repair.ToString();
  EXPECT_TRUE(durable.wal_error().ok()) << context;
}

// --- the crash loop --------------------------------------------------------

TEST(CrashLoopTest, CleanRunIsFullyAckedAndRecoversExactly) {
  const std::vector<std::string> fingerprints = BuildModel();
  FaultInjectingEnv env;
  RunResult clean = RunWorkload(&env, kDir);
  ASSERT_TRUE(clean.open_status.ok());
  EXPECT_EQ(clean.acked_steps, kNumSteps);
  // The workload exercises hundreds of distinct fault points.
  EXPECT_GT(env.op_count(), 100u);

  env.Recover(/*power_loss=*/true);
  Harness h(kRows);
  DurableStore durable(&h.store, kDir, FaultOptions(&env));
  ASSERT_TRUE(durable.Open().ok());
  EXPECT_EQ(Fingerprint(h.store), fingerprints[kNumSteps]);
  EXPECT_FALSE(durable.recovered_from_fallback());
}

TEST(CrashLoopTest, EveryOpSurvivesInjectedErrorsAndCrashes) {
  const std::vector<std::string> fingerprints = BuildModel();
  uint64_t total_ops;
  {
    FaultInjectingEnv env;
    RunResult clean = RunWorkload(&env, kDir);
    ASSERT_TRUE(clean.open_status.ok());
    total_ops = env.op_count();
  }
  for (FaultKind kind :
       {FaultKind::kIoError, FaultKind::kShortWrite, FaultKind::kCrash}) {
    for (uint64_t op = 0; op < total_ops; ++op) {
      FaultInjectingEnv env;
      env.InjectAt(op, kind);
      RunResult run = RunWorkload(&env, kDir);
      // The fault may have hit Open itself (e.g. the initial mkdir);
      // nothing was acknowledged then, but the error must be typed.
      if (!run.opened) {
        EXPECT_FALSE(run.open_status.message().empty());
      }
      env.Recover(/*power_loss=*/true);
      const std::string context = std::string("fault ") + KindName(kind) +
                                  " at op " + std::to_string(op);
      ExpectRecoversToPrefix(&env, fingerprints,
                             run.opened ? run.acked_steps : 0, context);
      if (HasFatalFailure()) return;  // one diagnosed fault point is enough
    }
  }
}

TEST(CrashLoopTest, SeededRandomizedMultiFaultLoop) {
  int iterations = 60;
  if (const char* from_env = std::getenv("CQMS_CRASH_LOOP_ITERS")) {
    iterations = std::atoi(from_env);
  }
  const std::vector<std::string> fingerprints = BuildModel();
  uint64_t total_ops;
  {
    FaultInjectingEnv env;
    RunResult clean = RunWorkload(&env, kDir);
    ASSERT_TRUE(clean.open_status.ok());
    total_ops = env.op_count();
  }
  constexpr FaultKind kKinds[] = {FaultKind::kIoError, FaultKind::kEnospc,
                                  FaultKind::kShortWrite, FaultKind::kCrash};
  std::mt19937 rng(0xC0FFEE);
  for (int iter = 0; iter < iterations; ++iter) {
    FaultInjectingEnv env;
    std::string context = "iteration " + std::to_string(iter) + ":";
    const int fault_count = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < fault_count; ++f) {
      const uint64_t op = rng() % total_ops;
      const FaultKind kind = kKinds[rng() % 4];
      env.InjectAt(op, kind);
      context += std::string(" ") + KindName(kind) + "@" + std::to_string(op);
    }
    RunResult run = RunWorkload(&env, kDir);
    env.Recover(/*power_loss=*/(rng() % 2) == 0);
    ExpectRecoversToPrefix(&env, fingerprints,
                           run.opened ? run.acked_steps : 0, context);
    if (HasFatalFailure()) return;
  }
}

TEST(CrashLoopTest, FaultsDuringRecoveryNeverCrashAndAreTyped) {
  const std::vector<std::string> fingerprints = BuildModel();
  FaultInjectingEnv env;
  RunResult clean = RunWorkload(&env, kDir);
  ASSERT_TRUE(clean.open_status.ok());

  // Count the ops a clean recovery performs.
  env.Recover(/*power_loss=*/false);
  uint64_t recovery_ops;
  {
    Harness h(kRows);
    DurableStore durable(&h.store, kDir, FaultOptions(&env));
    ASSERT_TRUE(durable.Open().ok());
    recovery_ops = env.op_count();
  }
  ASSERT_GT(recovery_ops, 5u);

  for (FaultKind kind : {FaultKind::kIoError, FaultKind::kCrash}) {
    for (uint64_t op = 0; op < recovery_ops; ++op) {
      env.Recover(/*power_loss=*/false);  // same disk, fresh fault space
      env.InjectAt(op, kind);
      Harness h(kRows);
      DurableStore durable(&h.store, kDir, FaultOptions(&env));
      Status open = durable.Open();
      if (open.ok()) {
        // The fault hit a non-fatal op (the tmp sweep, a skipped-frame
        // read...): recovery must still be complete.
        EXPECT_EQ(Fingerprint(h.store), fingerprints[kNumSteps])
            << KindName(kind) << " at recovery op " << op;
      } else {
        // Diagnosable, never a crash or a silent partial store serve.
        EXPECT_FALSE(open.message().empty());
      }
    }
  }

  // And with no fault armed the image still opens in full.
  env.Recover(/*power_loss=*/false);
  Harness h(kRows);
  DurableStore durable(&h.store, kDir, FaultOptions(&env));
  ASSERT_TRUE(durable.Open().ok());
  EXPECT_EQ(Fingerprint(h.store), fingerprints[kNumSteps]);
}

// --- degradation paths -----------------------------------------------------

TEST(DegradationTest, EnospcLatchesReadOnlyAndHealsOnCheckpoint) {
  FaultInjectingEnv env;
  Harness h(kRows);
  DurableStore durable(&h.store, kDir, FaultOptions(&env));
  ASSERT_TRUE(durable.Open().ok());
  std::vector<QueryId> ids;
  for (int step = 0; step <= 4; ++step) ApplyStep(&h, &durable, step, &ids);
  ASSERT_TRUE(durable.wal_error().ok());

  // The disk fills. Mutations keep applying in memory — degraded but
  // serving — while the WAL latches a typed ENOSPC.
  env.FailAllFrom(env.op_count(), FaultKind::kEnospc);
  const size_t size_before = h.store.size();
  for (int step = 6; step <= 15; ++step) ApplyStep(&h, &durable, step, &ids);
  EXPECT_GT(h.store.size(), size_before);
  EXPECT_TRUE(durable.read_only());
  EXPECT_EQ(durable.wal_error().code(), StatusCode::kResourceExhausted);

  // A latched error makes MaybeCheckpoint due regardless of thresholds;
  // on the full disk it fails typed, then backs off instead of
  // re-encoding a snapshot every cycle.
  Status first = durable.MaybeCheckpoint();
  EXPECT_EQ(first.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(durable.checkpoint_failure_streak(), 1u);
  EXPECT_EQ(durable.checkpoint_backoff_remaining(), 1u);
  Status backed_off = durable.MaybeCheckpoint();
  EXPECT_FALSE(backed_off.ok());
  EXPECT_EQ(durable.checkpoints_backed_off(), 1u);
  EXPECT_EQ(durable.checkpoint_backoff_remaining(), 0u);
  // Second live attempt fails again: the streak grows, the skip doubles.
  Status second = durable.MaybeCheckpoint();
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(durable.checkpoint_failure_streak(), 2u);
  EXPECT_EQ(durable.checkpoint_backoff_remaining(), 2u);

  // Space returns: the next live attempt repairs everything.
  env.ClearFaults();
  (void)durable.MaybeCheckpoint();  // consumes a backed-off call
  (void)durable.MaybeCheckpoint();  // consumes the other
  bool checkpointed = false;
  Status healed = durable.MaybeCheckpoint(&checkpointed);
  EXPECT_TRUE(healed.ok()) << healed.ToString();
  EXPECT_TRUE(checkpointed);
  EXPECT_FALSE(durable.read_only());
  EXPECT_EQ(durable.checkpoint_failure_streak(), 0u);

  // Power loss now: the checkpoint made the whole degraded-era state
  // durable.
  const std::string expect = Fingerprint(h.store);
  env.Recover(/*power_loss=*/true);
  Harness h2(kRows);
  DurableStore reopened(&h2.store, kDir, FaultOptions(&env));
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(Fingerprint(h2.store), expect);
}

TEST(DegradationTest, BitRotInNewestSnapshotFallsBackWithZeroLoss) {
  const std::vector<std::string> fingerprints = BuildModel();
  FaultInjectingEnv env;
  RunResult clean = RunWorkload(&env, kDir);
  ASSERT_TRUE(clean.open_status.ok());
  const std::string snapshot = std::string(kDir) + "/snapshot.cqms";
  const std::string prev = std::string(kDir) + "/snapshot.cqms.1";
  ASSERT_TRUE(env.FileExists(snapshot));
  ASSERT_TRUE(env.FileExists(prev));  // two checkpoints ran

  std::string bytes;
  ASSERT_TRUE(env.ReadBack(snapshot, &bytes).ok());
  ASSERT_TRUE(env.CorruptFile(snapshot, bytes.size() / 2).ok());

  env.Recover(/*power_loss=*/false);
  {
    Harness h(kRows);
    DurableStore durable(&h.store, kDir, FaultOptions(&env));
    Status open = durable.Open();
    ASSERT_TRUE(open.ok()) << open.ToString();
    EXPECT_TRUE(durable.recovered_from_fallback());
    // The previous snapshot plus the longer two-log replay reconstructs
    // everything — a single bad sector costs nothing.
    EXPECT_EQ(Fingerprint(h.store), fingerprints[kNumSteps]);
  }

  // Both generations rotten: recovery must refuse with a typed
  // corruption status, not crash and not serve a partial store silently.
  std::string prev_bytes;
  ASSERT_TRUE(env.ReadBack(prev, &prev_bytes).ok());
  ASSERT_TRUE(env.CorruptFile(prev, prev_bytes.size() / 2).ok());
  env.Recover(/*power_loss=*/false);
  Harness h2(kRows);
  DurableStore durable2(&h2.store, kDir, FaultOptions(&env));
  Status open = durable2.Open();
  EXPECT_EQ(open.code(), StatusCode::kCorruption);
  EXPECT_FALSE(open.message().empty());
}

TEST(DegradationTest, StaleTmpFilesAreSweptOnOpen) {
  FaultInjectingEnv env;
  RunResult clean = RunWorkload(&env, kDir);
  ASSERT_TRUE(clean.open_status.ok());

  // A crash mid-save strands the tmp file; plant one.
  const std::string tmp = std::string(kDir) + "/snapshot.cqms.tmp";
  {
    std::unique_ptr<WritableFile> out;
    ASSERT_TRUE(env.NewWritableFile(tmp, Env::WriteMode::kTruncate, &out).ok());
    ASSERT_TRUE(out->Append("half a snapshot").ok());
    ASSERT_TRUE(out->Close().ok());
  }
  ASSERT_TRUE(env.FileExists(tmp));

  env.Recover(/*power_loss=*/false);
  Harness h(kRows);
  DurableStore durable(&h.store, kDir, FaultOptions(&env));
  ASSERT_TRUE(durable.Open().ok());
  EXPECT_FALSE(env.FileExists(tmp));
}

// --- misuse and hostile-input paths (real POSIX env) -----------------------

std::string PosixTempDir(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(DurableStoreMisuseTest, DoubleOpenReturnsStatusNotAbort) {
  std::string dir = PosixTempDir("cqms_fault_double_open");
  std::filesystem::remove_all(dir);
  Harness h(kRows);
  DurableStore durable(&h.store, dir);
  ASSERT_TRUE(durable.Open().ok());
  Status again = durable.Open();
  EXPECT_EQ(again.code(), StatusCode::kInternal);
  EXPECT_FALSE(again.message().empty());
}

TEST(DurableStoreMisuseTest, OpenOnAFilePathReturnsStatusNotAbort) {
  std::string path = PosixTempDir("cqms_fault_not_a_dir");
  std::filesystem::remove_all(path);
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is a file, not a directory";
  }
  Harness h(kRows);
  DurableStore durable(&h.store, path);
  Status open = durable.Open();
  EXPECT_FALSE(open.ok());
  EXPECT_FALSE(open.message().empty());
}

TEST(DurableStoreMisuseTest, CheckpointAfterDirectoryVanishesReturnsStatus) {
  std::string dir = PosixTempDir("cqms_fault_vanished");
  std::filesystem::remove_all(dir);
  Harness h(kRows);
  DurabilityOptions options;
  options.checkpoint_wal_records = 1;  // every MaybeCheckpoint is due
  DurableStore durable(&h.store, dir, options);
  ASSERT_TRUE(durable.Open().ok());
  h.Log("alice", "SELECT temp FROM WaterTemp");
  std::filesystem::remove_all(dir);
  Status s = durable.Checkpoint();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.message().empty());
  // And the pacing machinery reports it instead of hammering the path.
  Status maybe = durable.MaybeCheckpoint();
  EXPECT_FALSE(maybe.ok());
  EXPECT_GE(durable.checkpoint_failure_streak(), 1u);
}

TEST(WalForwardCompatTest, UnknownRecordTagIsTypedCorruption) {
  std::string dir = PosixTempDir("cqms_fault_future_tag");
  std::filesystem::remove_all(dir);
  {
    Harness h(kRows);
    DurableStore durable(&h.store, dir);
    ASSERT_TRUE(durable.Open().ok());
    h.Log("alice", "SELECT temp FROM WaterTemp");  // sequence 1
  }
  // A future build wrote a record type this build does not know: a
  // well-formed frame (valid length and CRC) whose op tag is 200.
  {
    BinaryWriter payload;
    payload.PutVarint(2);  // sequence
    payload.PutU8(200);    // the unknown tag
    BinaryWriter frame;
    frame.PutFixed32(static_cast<uint32_t>(payload.data().size()));
    frame.PutFixed32(Crc32(payload.data()));
    frame.PutBytes(payload.data().data(), payload.data().size());
    std::ofstream out(dir + "/wal.log", std::ios::binary | std::ios::app);
    out.write(frame.data().data(),
              static_cast<std::streamsize>(frame.data().size()));
  }
  Harness h2(kRows);
  DurableStore durable(&h2.store, dir);
  Status open = durable.Open();
  EXPECT_EQ(open.code(), StatusCode::kCorruption);
  EXPECT_NE(open.message().find("unknown WAL record type"), std::string::npos)
      << open.ToString();
}

}  // namespace
}  // namespace cqms::storage
