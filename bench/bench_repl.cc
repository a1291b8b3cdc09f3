// E9 — WAL-shipping replication (docs/replication.md).
//
// BM_ReplFollowerCatchup: the bootstrap headline. A fresh follower
// (CqmsServer in follower mode + repl::Follower, the exact wiring of
// cqms_serverd --follow) subscribes from sequence 0 against a durable
// primary holding a few thousand WAL records and must drain the whole
// backlog over loopback. items_per_second is WAL records replicated
// and applied per second — the rate at which a new replica becomes
// useful, and the rate a lagging one closes a gap.
//
// BM_ReplSteadyStateLag: the per-write replication latency. With a
// converged follower attached, each iteration appends one record on
// the primary and waits until the follower reports it applied —
// client encode -> primary writer -> WAL frame -> shipper push ->
// follower apply -> ack, end to end. real_time per iteration is the
// steady-state replica lag a read-your-writes client would observe.
//
// Both measure wall-clock time (UseRealTime): the driving thread
// mostly waits on other threads and sockets.

#include <benchmark/benchmark.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "core/cqms.h"
#include "netclient/client.h"
#include "repl/follower.h"
#include "server/server.h"
#include "workload/synthetic.h"

namespace cqms {
namespace {

/// WAL records pre-loaded on the primary for the catch-up benchmark.
/// Kept under DurabilityOptions::checkpoint_wal_records so every record
/// is still in the active WAL: the follower catches up frame by frame
/// (the streaming path), never via snapshot bootstrap.
constexpr size_t kBacklogRecords = 2000;

/// Scratch durable dir (fresh per process; leftovers from a previous
/// run are cleared, including retired WAL segments).
std::string BenchDir() {
  std::string dir = "/tmp/cqms_bench_repl";
  ::mkdir(dir.c_str(), 0755);
  for (const char* base : {"snapshot.cqms", "snapshot.cqms.1",
                           "snapshot.cqms.tmp", "wal.log"}) {
    std::remove((dir + "/" + base).c_str());
  }
  for (int i = 1; i < 64; ++i) {
    if (std::remove((dir + "/wal.log." + std::to_string(i)).c_str()) != 0) {
      break;
    }
  }
  return dir;
}

/// One durable primary shared by every benchmark run (leaked, like the
/// other bench fixtures; the process exits right after the runs).
struct ReplBenchFixture {
  ReplBenchFixture() {
    if (!cqms.EnableDurability(BenchDir()).ok()) std::abort();
    if (!workload::PopulateLakeDatabase(cqms.database(), 30).ok()) std::abort();
    cqms.RegisterUser("alice", {"lab0"});
    cqms.RegisterUser("bob", {"lab0"});
    sequence = 2;  // Two kAddUser WAL records.
    server::ServerOptions sopts;
    sopts.repl_heartbeat_ms = 40;
    server = std::make_unique<server::CqmsServer>(&cqms, sopts);
    if (!server->Start().ok()) std::abort();

    auto client = Connect();
    for (size_t i = 0; i < kBacklogRecords; ++i) AppendOne(client.get());
  }

  std::unique_ptr<netclient::CqmsClient> Connect() {
    auto r = netclient::CqmsClient::Connect("127.0.0.1", server->port());
    if (!r.ok()) std::abort();
    return std::move(*r);
  }

  /// One log-only append = one WAL record = one shipped frame.
  void AppendOne(netclient::CqmsClient* client) {
    net::AppendRequest req;
    req.user = (sequence % 2 == 0) ? "alice" : "bob";
    req.sql = "SELECT * FROM Sensors WHERE sensor_id < " +
              std::to_string(sequence % 97 + 1);
    req.execute = false;
    if (!client->Append(req).ok()) std::abort();
    ++sequence;
  }

  Cqms cqms;
  std::unique_ptr<server::CqmsServer> server;
  uint64_t sequence = 0;  ///< WAL records the primary has acked.
};

ReplBenchFixture& Fixture() {
  static ReplBenchFixture* fixture = new ReplBenchFixture();
  return *fixture;
}

/// A follower CqmsServer wired to a repl::Follower — the cqms_serverd
/// --follow wiring, with bench-fast reconnect backoff.
struct BenchReplica {
  explicit BenchReplica(uint16_t primary_port) {
    server::ServerOptions sopts;
    sopts.follow_primary = "127.0.0.1:" + std::to_string(primary_port);
    server = std::make_unique<server::CqmsServer>(&cqms, sopts);
    repl::FollowerOptions fopts;
    fopts.primary_port = primary_port;
    fopts.name = "bench-replica";
    fopts.backoff_initial_ms = 20;
    fopts.backoff_max_ms = 200;
    std::shared_ptr<Cqms> live(&cqms, [](Cqms*) {});
    follower = std::make_unique<repl::Follower>(server.get(), live, fopts);
    server->SetFollower(follower.get());
    if (!server->Start().ok()) std::abort();
    if (!follower->Start().ok()) std::abort();
  }

  ~BenchReplica() {
    server->Shutdown();
    follower->Stop();
  }

  /// Blocks until the follower has applied through `sequence`.
  void WaitApplied(uint64_t sequence) {
    while (follower->GetStats().applied_sequence < sequence) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  Cqms cqms;
  std::unique_ptr<server::CqmsServer> server;
  std::unique_ptr<repl::Follower> follower;
};

void BM_ReplFollowerCatchup(benchmark::State& state) {
  ReplBenchFixture& fx = Fixture();
  for (auto _ : state) {
    {
      BenchReplica replica(fx.server->port());
      replica.WaitApplied(fx.sequence);
      state.PauseTiming();  // Teardown (thread joins) is not catch-up.
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.sequence));
}
BENCHMARK(BM_ReplFollowerCatchup)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ReplSteadyStateLag(benchmark::State& state) {
  ReplBenchFixture& fx = Fixture();
  auto client = fx.Connect();
  BenchReplica replica(fx.server->port());
  replica.WaitApplied(fx.sequence);

  for (auto _ : state) {
    fx.AppendOne(client.get());
    replica.WaitApplied(fx.sequence);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReplSteadyStateLag)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace cqms

BENCHMARK_MAIN();
