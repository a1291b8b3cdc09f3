// E8 — Network serving (docs/server.md).
//
// End-to-end daemon throughput over loopback through the real stack:
// client encode -> frame -> TCP -> epoll loop -> worker/writer ->
// response frame -> client decode.
//
// BM_ServerSearchPipelined/batch: the pipelining headline. batch:1 is
// one request per round trip (every request pays the full loopback
// latency); batch:8 and batch:64 keep that many requests in flight on
// one connection and the server answers out of order. items_per_second
// (requests/s) for batch:64 must clear batch:1 by a wide margin — the
// wire protocol exists so that clients are not serialized on latency.
//
// BM_ServerMixed/read_pct: a pipelined mixed workload (Search vs
// Append) at 95/5 (search-dominated exploration) and 50/50
// (append-heavy logging) — appends serialize on the single writer
// thread, searches fan out across workers against pinned views.
//
// Every rate is wall-clock (UseRealTime): the client thread mostly
// waits on the socket, so its CPU time would overstate throughput.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cqms.h"
#include "netclient/client.h"
#include "server/server.h"
#include "workload/synthetic.h"

namespace cqms {
namespace {

/// One daemon shared by every benchmark run (leaked, like the other
/// bench fixtures; the process exits right after the runs).
struct ServerBenchFixture {
  ServerBenchFixture() {
    Status s = workload::PopulateLakeDatabase(cqms.database(), 100);
    if (!s.ok()) std::abort();
    cqms.RegisterUser("user0", {"lab0"});
    for (size_t i = 0; i < 200; ++i) {
      cqms.Execute("user0", "SELECT * FROM Sensors WHERE sensor_id < " +
                                std::to_string(i % 40 + 1));
    }
    server = std::make_unique<server::CqmsServer>(&cqms);
    if (!server->Start().ok()) std::abort();
  }

  Cqms cqms;
  std::unique_ptr<server::CqmsServer> server;
};

ServerBenchFixture& Fixture() {
  static ServerBenchFixture* fixture = new ServerBenchFixture();
  return *fixture;
}

std::unique_ptr<netclient::CqmsClient> Connect() {
  auto r = netclient::CqmsClient::Connect("127.0.0.1", Fixture().server->port());
  if (!r.ok()) std::abort();
  return std::move(*r);
}

void BM_ServerSearchPipelined(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  auto client = Connect();
  net::SearchSpec spec;
  spec.keyword = net::KeywordSpec{"sensors", true};
  spec.limit = 10;
  std::vector<uint64_t> ids(batch);

  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      ids[i] = client->SendSearch("user0", spec);
    }
    if (!client->Flush().ok()) state.SkipWithError("flush failed");
    for (size_t i = 0; i < batch; ++i) {
      auto r = client->WaitSearch(ids[i]);
      if (!r.ok()) state.SkipWithError("search failed");
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_ServerSearchPipelined)->Arg(1)->Arg(8)->Arg(64)->UseRealTime();

void BM_ServerMixed(benchmark::State& state) {
  const int read_pct = static_cast<int>(state.range(0));
  const size_t batch = 20;
  auto client = Connect();
  net::SearchSpec spec;
  spec.keyword = net::KeywordSpec{"sensors", true};
  spec.limit = 10;

  size_t seq = 0;
  std::vector<std::pair<uint64_t, bool>> inflight(batch);  // id, is_search
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      bool is_search = static_cast<int>(seq++ % 100) < read_pct;
      if (is_search) {
        inflight[i] = {client->SendSearch("user0", spec), true};
      } else {
        net::AppendRequest append;
        append.user = "user0";
        append.sql = "SELECT * FROM Readings WHERE ts < " +
                     std::to_string(seq % 500 + 1);
        inflight[i] = {client->SendAppend(append), false};
      }
    }
    if (!client->Flush().ok()) state.SkipWithError("flush failed");
    for (const auto& [id, is_search] : inflight) {
      if (is_search) {
        auto r = client->WaitSearch(id);
        if (!r.ok()) state.SkipWithError("search failed");
      } else {
        auto r = client->WaitAppend(id);
        if (!r.ok()) state.SkipWithError("append failed");
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_ServerMixed)->Arg(95)->Arg(50)->UseRealTime();

}  // namespace
}  // namespace cqms

BENCHMARK_MAIN();
