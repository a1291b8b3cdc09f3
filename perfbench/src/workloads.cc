#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "analysis.h"
#include "loadgen.h"
#include "repl/follower.h"
#include "script.h"
#include "server/server.h"
#include "storage/record_builder.h"
#include "timing_env.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

using cqms::server::CqmsServer;

std::unique_ptr<CqmsServer> StartServer(cqms::Cqms* cqms) {
  cqms::server::ServerOptions options;
  options.workers = kServerWorkers;
  auto server = std::make_unique<CqmsServer>(cqms, options);
  cqms::Status s = server->Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  return server;
}

double SecondsSince(int64_t start_us) {
  return static_cast<double>(NowMicros() - start_us) / 1e6;
}

/// Ops of one pass: `per_second` per --seconds, halved for quick passes.
size_t OpBudget(size_t per_second, const Config& config) {
  const size_t seconds = static_cast<size_t>(config.seconds);
  return std::max(kMinOps, per_second * (config.quick ? seconds / 2 : seconds));
}

std::string SpanPath(const Config& config) {
  return config.work_dir + "/spans/" + config.workload + "-seed" +
         std::to_string(config.seed) + ".jsonl";
}

/// A daemon over a freshly generated lab log.
struct LabDaemon {
  std::unique_ptr<Lab> lab;
  std::unique_ptr<CqmsServer> server;
  size_t preload = 0;  ///< Records in the log when the daemon started.
};

/// Builds the lab and starts its daemon; `seconds` gets the time taken.
LabDaemon SetUpLabDaemon(const Config& config, double* seconds) {
  const int64_t t0 = NowMicros();
  LabDaemon d;
  d.lab = BuildLab(kLogSessions, config.seed);
  d.preload = d.lab->cqms->store()->size();
  d.server = StartServer(d.lab->cqms.get());
  *seconds = SecondsSince(t0);
  return d;
}

/// Registry and server-stats snapshots bracketing one pass.
struct LayerProbe {
  RegistryDelta registry;
  net::StatsResult before;
  net::StatsResult after;

  void Begin(const CqmsServer& server) {
    before = server.StatsSnapshot();
    registry.Begin();
  }
  void End(const CqmsServer& server) {
    registry.End();
    after = server.StatsSnapshot();
  }
};

/// Per-layer metrics of a finished pass, shared by every workload.
void AnalyzeLayers(const Config& config, cqms::Cqms* cqms,
                   const Traffic& traffic, const LayerProbe& probe,
                   Report* report) {
  AddLayerMetrics(traffic, probe.registry, probe.before, probe.after, report);
  if (config.traced) {
    AddTraceMetrics(traffic, report);
    AddReplayMetrics(cqms, traffic, report);
    WriteSpans(SpanPath(config), traffic);
  }
}

/// Ops of one connection, in script order, with their outcome slots.
void OpsOfConn(Traffic* traffic, uint32_t conn, std::vector<const Op*>* ops,
               std::vector<Outcome*>* outs) {
  for (size_t i = 0; i < traffic->ops.size(); ++i) {
    if (traffic->ops[i].conn != conn) continue;
    ops->push_back(&traffic->ops[i]);
    outs->push_back(&traffic->outs[i]);
  }
}

void SetEnd(Traffic* traffic) {
  traffic->end_us = traffic->start_us;
  for (const Outcome& out : traffic->outs) {
    traffic->end_us = std::max(traffic->end_us, out.done_us);
  }
}

/// Closed loop: every connection runs its ops one at a time, each sent
/// when the previous one's response is back. Annotations and visibility
/// changes target the connection's own earlier appends.
void RunClosedLoop(
    const std::vector<std::unique_ptr<cqms::netclient::CqmsClient>>& clients,
    bool want_trace, bool execute, Traffic* traffic) {
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<const Op*> ops;
      std::vector<Outcome*> outs;
      OpsOfConn(traffic, c, &ops, &outs);
      std::vector<storage::QueryId> own;  // This connection's appends.
      for (size_t i = 0; i < ops.size(); ++i) {
        const storage::QueryId target =
            ops[i]->target < own.size() ? own[ops[i]->target]
                                        : storage::kInvalidQueryId;
        CallOnce(clients[c].get(), *ops[i], want_trace, execute, target,
                 outs[i]);
        if (ops[i]->kind == Kind::kAppend) {
          own.push_back(outs[i]->ok ? outs[i]->append.id
                                    : storage::kInvalidQueryId);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  SetEnd(traffic);
}

/// rss_peak_mb counts from here: the daemon's build and run, not the
/// throwaway instances the scripts were generated on.
void StartPeakRss(RunResult* result) {
  if (!ResetPeakRss()) {
    result->errors.push_back(
        "cannot reset the peak RSS (/proc/self/clear_refs)");
  }
}

void CheckExploreOracle(const cqms::Cqms& cqms, const Traffic& traffic,
                        RunResult* result) {
  size_t checked = 0, mismatched = 0;
  for (size_t i = 0; i < traffic.ops.size(); i += 16) {
    const Op& op = traffic.ops[i];
    const Outcome& out = traffic.outs[i];
    if (!out.ok) continue;
    ++checked;
    bool same = true;
    if (op.kind == Kind::kSearch) {
      storage::QueryRecord probe;
      const storage::QueryRecord* probe_ptr = nullptr;
      if (op.spec.similarity.has_value()) {
        probe = storage::BuildRecordFromText(op.spec.similarity->probe_text,
                                             op.user, 0,
                                             storage::SignatureMode::kTransient);
        probe_ptr = &probe;
      }
      cqms::metaquery::MetaQueryResponse want =
          cqms.Search(op.user, net::ToMetaQueryRequest(op.spec, probe_ptr));
      const net::SearchResult& got = out.search;
      same = got.matches.size() == want.matches.size() &&
             got.generator == static_cast<uint8_t>(want.generator) &&
             got.candidates_considered == want.candidates_considered;
      for (size_t m = 0; same && m < want.matches.size(); ++m) {
        same = got.matches[m].id == want.matches[m].id &&
               got.matches[m].similarity == want.matches[m].similarity &&
               got.matches[m].score == want.matches[m].score;
      }
    } else {
      auto want = RecommendOracle(cqms, op.user, op.text, 5);
      const auto& got = out.recommend.items;
      same = got.size() == want.size();
      for (size_t m = 0; same && m < want.size(); ++m) {
        same = got[m].id == want[m].first && got[m].text == want[m].second;
      }
    }
    if (!same) ++mismatched;
  }
  if (mismatched > 0 || checked == 0) {
    result->errors.push_back(
        "explore_read: " + std::to_string(mismatched) + " of " +
        std::to_string(checked) +
        " sampled wire results differ from in-process Cqms::Search");
  }
}

}  // namespace

RunResult RunExploreRead(const Config& config) {
  RunResult result;
  StartPeakRss(&result);
  double setup_s = 0;
  LabDaemon d = SetUpLabDaemon(config, &setup_s);
  result.setups.push_back(setup_s);
  cqms::Cqms* cqms = d.lab->cqms.get();

  Traffic traffic;
  traffic.open_loop = true;
  traffic.ops = BuildExploreScript(*cqms->store(), config.seed,
                                   OpBudget(kExploreOpenOpsPerS, config),
                                   kExploreRatePerS, kConns);
  traffic.outs.resize(traffic.ops.size());

  std::vector<std::unique_ptr<cqms::netclient::CqmsClient>> clients;
  for (uint32_t c = 0; c < kConns; ++c) {
    clients.push_back(ConnectOrDie(d.server->port()));
  }
  LayerProbe probe;
  probe.Begin(*d.server);
  // A short lead lets every generator thread reach its loop before the
  // first op falls due.
  traffic.start_us = NowMicros() + 20000;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      std::vector<const Op*> ops;
      std::vector<Outcome*> outs;
      OpsOfConn(&traffic, c, &ops, &outs);
      ClientChannel channel(clients[c].get(), config.traced, false);
      RunOpenLoop(&channel, ops, traffic.start_us, outs);
    });
  }
  for (std::thread& t : threads) t.join();
  SetEnd(&traffic);
  probe.End(*d.server);

  AddClientMetrics({&traffic}, &result);
  AnalyzeLayers(config, cqms, traffic, probe, &result.report);
  // The store is static, so every sampled wire answer must equal the
  // in-process one.
  CheckExploreOracle(*cqms, traffic, &result);
  // Read before the saturation pass: the store is static, so that pass
  // would only add the load generator's outcomes to the peak.
  result.report.Add("rss_peak_mb", PeakRssMb(), "MiB");

  // The open loop offers a fixed rate, so its throughput is the
  // schedule's. ops_per_s comes from a saturation pass over a script of
  // its own (same mix, another seed), each of kSaturationConns
  // connections keeping one request outstanding (closed loop).
  if (!config.quick) {
    Traffic saturation;
    saturation.ops = BuildExploreScript(
        *cqms->store(), config.seed ^ 0x5a7, OpBudget(kSaturationOpsPerS, config),
        kExploreRatePerS, kSaturationConns);
    saturation.outs.resize(saturation.ops.size());
    clients.resize(kSaturationConns);
    saturation.start_us = NowMicros();
    RunClosedLoop(clients, false, false, &saturation);
    CountOutcomes(saturation, &result);
    AddThroughput({&saturation}, kThroughputPct, &result);
    CheckExploreOracle(*cqms, saturation, &result);
  }
  clients.clear();
  d.server->Shutdown();
  return result;
}

RunResult RunSessionMixed(const Config& config) {
  RunResult result;
  const size_t n = OpBudget(kSessionOpsPerS, config);
  Traffic traffic;
  // About 0.35 n appends at ~6 queries per session, with headroom. The
  // queries come from a throwaway instance, built and freed before the
  // measured daemon so that it stays out of rss_peak_mb.
  traffic.ops = BuildSessionScript(
      GenerateSessionQueries(n / 10 + 4 * kConns, config.seed ^ 0x5e55),
      config.seed, n, kConns);
  traffic.outs.resize(traffic.ops.size());
  StartPeakRss(&result);
  double setup_s = 0;
  LabDaemon d = SetUpLabDaemon(config, &setup_s);
  result.setups.push_back(setup_s);
  cqms::Cqms* cqms = d.lab->cqms.get();

  std::vector<std::unique_ptr<cqms::netclient::CqmsClient>> clients;
  for (uint32_t c = 0; c < kConns; ++c) {
    clients.push_back(ConnectOrDie(d.server->port()));
  }
  LayerProbe probe;
  probe.Begin(*d.server);
  traffic.start_us = NowMicros();
  RunClosedLoop(clients, config.traced, true, &traffic);
  probe.End(*d.server);

  AddClientMetrics({&traffic}, &result);
  AddThroughput({&traffic}, kThroughputPct, &result);
  result.report.Add("rss_peak_mb", PeakRssMb(), "MiB");
  AnalyzeLayers(config, cqms, traffic, probe, &result.report);
  clients.clear();
  d.server->Shutdown();

  // Every acked append is in the log under its id, and nothing else was
  // added.
  size_t acked = 0, wrong = 0;
  for (size_t i = 0; i < traffic.ops.size(); ++i) {
    if (traffic.ops[i].kind != Kind::kAppend || !traffic.outs[i].ok) continue;
    ++acked;
    const storage::QueryRecord* r = cqms->store()->Get(traffic.outs[i].append.id);
    if (r == nullptr || r->text != traffic.ops[i].text) ++wrong;
  }
  if (cqms->store()->size() != d.preload + acked || wrong > 0) {
    result.errors.push_back(
        "session_mixed: store holds " + std::to_string(cqms->store()->size()) +
        " records, expected " + std::to_string(d.preload) + " + " +
        std::to_string(acked) + " acked appends; " + std::to_string(wrong) +
        " acked ids do not hold their text");
  }
  return result;
}

namespace {

/// The durable primary, its in-process follower replica, and the
/// primary's instrumented filesystem.
struct DurableCluster {
  std::string dir;
  std::unique_ptr<TimingEnv> env;
  std::unique_ptr<cqms::Cqms> primary;
  std::unique_ptr<CqmsServer> primary_server;
  std::unique_ptr<cqms::Cqms> replica;
  std::unique_ptr<CqmsServer> replica_server;
  std::unique_ptr<cqms::repl::Follower> follower;
  std::vector<storage::QueryId> preload_ids;

  ~DurableCluster() { Stop(); }

  /// Follower first: its queued applies still need the replica's writer.
  void Stop() {
    if (follower != nullptr) follower->Stop();
    if (replica_server != nullptr) replica_server->Shutdown();
    if (primary_server != nullptr) primary_server->Shutdown();
  }

  /// The primary's last WAL sequence, read on its writer thread (so it
  /// covers every mutation acked before the call), and when it was read.
  uint64_t PrimarySequence(int64_t* at_us = nullptr) {
    uint64_t seq = 0;
    cqms::Status s = primary_server->RunOnWriter([&] {
      seq = primary->durable()->last_sequence();
      if (at_us != nullptr) *at_us = NowMicros();
      return cqms::Status::Ok();
    });
    if (!s.ok()) std::abort();
    return seq;
  }

  /// Polls every 100 us until the follower has applied through `seq`
  /// (false after 30 s).
  bool WaitApplied(uint64_t seq) {
    const int64_t deadline = NowMicros() + 30000000;
    while (follower->GetStats().applied_sequence < seq) {
      if (NowMicros() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
  }
};

storage::DurabilityOptions IngestDurability(storage::Env* env) {
  storage::DurabilityOptions options;
  options.fsync_each_record = true;
  options.env = env;
  return options;
}

std::unique_ptr<DurableCluster> StartCluster(
    const std::string& dir, const std::vector<ScriptQuery>& preload) {
  auto c = std::make_unique<DurableCluster>();
  c->dir = dir;
  std::filesystem::remove_all(dir);
  c->env = std::make_unique<TimingEnv>();
  c->primary = std::make_unique<cqms::Cqms>();
  cqms::Status s = c->primary->EnableDurability(dir, IngestDurability(c->env.get()));
  if (s.ok()) {
    s = cqms::workload::PopulateLakeDatabase(c->primary->database(),
                                             kLabRowsPerTable);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "durable setup: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  cqms::workload::RegisterUsers(c->primary->store(), {});
  for (const ScriptQuery& q : preload) {
    c->preload_ids.push_back(c->primary->profiler().LogOnly(q.text, q.user));
  }
  const uint64_t seq = c->primary->durable()->last_sequence();
  c->primary_server = StartServer(c->primary.get());

  // The cqms_serverd --follow wiring, in process.
  c->replica = std::make_unique<cqms::Cqms>();
  cqms::server::ServerOptions ropts;
  ropts.workers = kServerWorkers;
  ropts.follow_primary =
      "127.0.0.1:" + std::to_string(c->primary_server->port());
  c->replica_server = std::make_unique<CqmsServer>(c->replica.get(), ropts);
  cqms::repl::FollowerOptions fopts;
  fopts.primary_port = c->primary_server->port();
  fopts.name = "perfbench-replica";
  std::shared_ptr<cqms::Cqms> live(c->replica.get(), [](cqms::Cqms*) {});
  c->follower = std::make_unique<cqms::repl::Follower>(c->replica_server.get(),
                                                       live, fopts);
  c->replica_server->SetFollower(c->follower.get());
  if (!c->replica_server->Start().ok() || !c->follower->Start().ok() ||
      !c->WaitApplied(seq)) {
    std::fprintf(stderr, "durable setup: follower did not catch up\n");
    std::exit(2);
  }
  return c;
}

/// The historical records logged before the durable daemon starts.
std::vector<ScriptQuery> IngestPreload(const Config& config) {
  std::vector<ScriptQuery> queries =
      GenerateSessionQueries(kIngestPreload / 5, config.seed ^ 0x9e10ad);
  queries.resize(std::min(kIngestPreload, queries.size()));
  return queries;
}

std::string DurableDir(const Config& config) {
  return config.work_dir + "/durable-" + std::to_string(::getpid());
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}


/// One import from a fresh cluster into `traffic` (whose ops are set).
/// Every round adds a setup sample; the last adds the per-layer metrics.
void IngestRound(const Config& config, const std::vector<ScriptQuery>& preload,
                 bool last, Traffic* traffic, RunResult* result) {
  Report& report = result->report;
  const std::string dir = DurableDir(config);
  const int64_t t0 = NowMicros();
  std::unique_ptr<DurableCluster> c = StartCluster(dir, preload);
  result->setups.push_back(SecondsSince(t0));

  traffic->outs.assign(traffic->ops.size(), Outcome());
  auto client = ConnectOrDie(c->primary_server->port());
  LayerProbe probe;
  probe.Begin(*c->primary_server);
  const TimingEnv::Counters& env = c->env->counters();
  const uint64_t writes0 = env.writes, syncs0 = env.syncs,
                 sync_us0 = env.sync_micros;

  // Replication lag sampler: every ~10 ms, read the primary's sequence
  // on its writer (the ack point of every mutation queued before) and
  // time until the follower has applied it.
  std::atomic<bool> importing{true};
  std::vector<double> lag_us;
  uint64_t lag_records_max = 0, backlog_max = 0;
  std::thread sampler([&] {
    while (importing.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      int64_t acked_at = 0;
      const uint64_t seq = c->PrimarySequence(&acked_at);
      const uint64_t applied = c->follower->GetStats().applied_sequence;
      lag_records_max = std::max(lag_records_max, seq - std::min(seq, applied));
      backlog_max = std::max(
          backlog_max, c->primary_server->StatsSnapshot().repl_backlog_bytes);
      if (!c->WaitApplied(seq)) break;
      lag_us.push_back(static_cast<double>(NowMicros() - acked_at));
    }
  });

  // The import: every op pipelined, up to kInFlight requests outstanding,
  // in script order (the daemon applies mutations in arrival order). An
  // Annotate or SetVisibility first waits for the append it targets.
  constexpr size_t kInFlight = 32;
  traffic->start_us = NowMicros();
  std::vector<size_t> appends;  // Script index of each append, in order.
  size_t outstanding = 0;
  ClientChannel channel(client.get(), false, false);
  auto receive_one = [&] {
    channel.Flush();
    Outcome* out = channel.Receive();
    out->done_us = NowMicros();
    --outstanding;
  };
  for (size_t i = 0; i < traffic->ops.size(); ++i) {
    const Op& op = traffic->ops[i];
    storage::QueryId target = storage::kInvalidQueryId;
    if (op.kind == Kind::kAnnotate || op.kind == Kind::kSetVisibility) {
      const Outcome& acked = traffic->outs[appends[op.target]];
      while (acked.done_us == 0) receive_one();
      if (acked.ok) target = acked.append.id;
    }
    if (outstanding == kInFlight) receive_one();
    traffic->outs[i].sent_us = NowMicros();
    channel.Send(op, target, &traffic->outs[i]);
    ++outstanding;
    if (op.kind == Kind::kAppend) appends.push_back(i);
  }
  while (outstanding > 0) receive_one();
  SetEnd(traffic);
  importing = false;
  sampler.join();
  probe.End(*c->primary_server);

  // The follower converges on the primary: same sequence, same size.
  const uint64_t final_seq = c->PrimarySequence();
  const bool caught_up = c->WaitApplied(final_seq);
  const size_t primary_size = c->primary->CurrentReadView()->size();
  const size_t replica_size =
      c->replica_server->CurrentCqms()->CurrentReadView()->size();
  if (!caught_up || c->follower->GetStats().applied_sequence != final_seq ||
      primary_size != replica_size) {
    result->errors.push_back(
        "durable_ingest: follower at sequence " +
        std::to_string(c->follower->GetStats().applied_sequence) + " with " +
        std::to_string(replica_size) + " records, primary at " +
        std::to_string(final_seq) + " with " + std::to_string(primary_size));
  }
  client.reset();
  c->Stop();  // Graceful: the primary's final checkpoint runs here.
  const uint64_t disk_bytes = DirBytes(dir);

  // Recovery: a fresh instance on the primary's directory, several
  // times; the last one is checked against every acked record.
  std::vector<double> recover_times;
  std::unique_ptr<cqms::Cqms> recovered;
  TimingEnv recover_env;
  for (int k = 0; k < 3; ++k) {
    recovered = std::make_unique<cqms::Cqms>();
    const int64_t r0 = NowMicros();
    cqms::Status s =
        recovered->EnableDurability(dir, IngestDurability(&recover_env));
    recover_times.push_back(SecondsSince(r0));
    if (!s.ok()) {
      result->errors.push_back("durable_ingest: recovery failed: " +
                               s.ToString());
      break;
    }
  }
  size_t lost = 0;
  for (size_t i = 0; i < preload.size(); ++i) {
    const storage::QueryRecord* r = recovered->store()->Get(c->preload_ids[i]);
    if (r == nullptr || r->text != preload[i].text) ++lost;
  }
  for (size_t i = 0; i < traffic->ops.size(); ++i) {
    if (traffic->ops[i].kind != Kind::kAppend || !traffic->outs[i].ok) continue;
    const storage::QueryRecord* r =
        recovered->store()->Get(traffic->outs[i].append.id);
    if (r == nullptr || r->text != traffic->ops[i].text) ++lost;
  }
  if (lost > 0 || recovered->store()->size() != primary_size) {
    result->errors.push_back("durable_ingest: " + std::to_string(lost) +
                             " acked records missing after recovery; " +
                             std::to_string(recovered->store()->size()) +
                             " records recovered of " +
                             std::to_string(primary_size));
  }

  if (last) {
    AnalyzeLayers(config, c->primary.get(), *traffic, probe, &report);
    const double wal_records = probe.registry.Counter("cqms_wal_appends_total");
    const double sync_us = static_cast<double>(env.sync_micros - sync_us0);
    const double syncs = static_cast<double>(env.syncs - syncs0);
    report.Add("env.writes_per_record",
               Ratio(static_cast<double>(env.writes - writes0), wal_records),
               "ratio");
    report.Add("env.syncs_per_record", Ratio(syncs, wal_records), "ratio");
    report.Add("env.sync_us_mean", Ratio(sync_us, syncs), "us",
               static_cast<size_t>(syncs), "mean");
    report.Add("env.sync_busy_frac", Ratio(sync_us, traffic->wall_us()),
               "ratio");
    const Distribution lag = Summarize(lag_us);
    report.Add("repl.lag_p50_us", lag.p50, "us", lag.count, "p50");
    report.Add("repl.lag_tail_us", lag.tail, "us", lag.count, TailLabel(lag));
    report.Add("repl.lag_records_max", static_cast<double>(lag_records_max),
               "count");
    report.Add("repl.backlog_bytes_max", static_cast<double>(backlog_max), "B");
    report.Add("storage.disk_bytes_per_record",
               Ratio(static_cast<double>(disk_bytes),
                     static_cast<double>(primary_size)),
               "B");
    report.Add("storage.recover_s", Median(recover_times), "s",
               recover_times.size(), "median");
  }
  if (last && config.traced) {
    // The background cycles stay out of the import: maintenance writes a
    // WAL record per re-scored query and mining one per re-sessionized
    // query, and the follower replays each with a full view publish, so
    // one cycle costs tens of seconds of catch-up. Time one of each in
    // process on the recovered log instead.
    int64_t m0 = NowMicros();
    recovered->RunMaintenance();
    report.Add("maintain.run_ms", static_cast<double>(NowMicros() - m0) / 1000,
               "ms", 1, "in-process RunMaintenance on the recovered log");
    RegistryDelta mining;
    mining.Begin();
    m0 = NowMicros();
    recovered->RunMining();
    const double ms = static_cast<double>(NowMicros() - m0) / 1000;
    mining.End();
    report.Put({"miner.refresh_ms_mean", ms, "ms", 1,
                "in-process RunMining on the recovered log"});
    report.Put({"miner.pairs_computed",
                mining.Counter("cqms_miner_pairs_computed_total"), "count", 0,
                "in-process RunMining"});
  }
  recovered.reset();
  c.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

RunResult RunDurableIngest(const Config& config) {
  RunResult result;
  // Ops of one round; every round, the traced one too, fills a window.
  const size_t n = std::max(kOpsPerWindow + 100,
                            kIngestOpsPerS * static_cast<size_t>(config.seconds));
  const std::vector<ScriptQuery> preload = IngestPreload(config);
  // About 0.88 n appends at ~6 queries per session.
  const std::vector<Op> script = BuildIngestScript(
      GenerateSessionQueries(n / 6 + 16, config.seed ^ 0x1a6e), config.seed, n,
      kCheckpointEvery);
  // The same import, each round from a fresh cluster: the log grows
  // during a round and every append's cost grows with it, so more work
  // per run means more rounds, not a longer one.
  const size_t round_count = config.quick ? 1 : kIngestRounds;
  std::vector<Traffic> rounds(round_count);
  std::vector<const Traffic*> traffics;
  StartPeakRss(&result);
  for (size_t r = 0; r < round_count; ++r) {
    rounds[r].ops = script;
    IngestRound(config, preload, r + 1 == round_count, &rounds[r], &result);
    traffics.push_back(&rounds[r]);
    // Later rounds inherit the first one's heap; its peak is the one a
    // fresh daemon process would show. A traced round also holds the
    // in-process maintenance and mining runs, so it reports none.
    if (r == 0 && !config.traced) {
      result.report.Add("rss_peak_mb", PeakRssMb(), "MiB");
    }
  }
  AddClientMetrics(traffics, &result);
  // Each round is one window: ops_per_s is the fastest of the identical
  // imports.
  AddThroughput(traffics, 100, &result);
  return result;
}

double TimeSetup(const Config& config) {
  double seconds = 0;
  if (config.workload == "durable_ingest") {
    const std::vector<ScriptQuery> preload = IngestPreload(config);
    const std::string dir = DurableDir(config);
    const int64_t t0 = NowMicros();
    std::unique_ptr<DurableCluster> c = StartCluster(dir, preload);
    seconds = SecondsSince(t0);
    c.reset();
    std::filesystem::remove_all(dir);
  } else {
    SetUpLabDaemon(config, &seconds);
  }
  return seconds;
}

}  // namespace perfbench
