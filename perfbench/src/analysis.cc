#include "analysis.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/binary_codec.h"
#include "metaquery/meta_query_request.h"
#include "storage/record_builder.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

bool IsMutation(Kind kind) {
  return kind == Kind::kAppend || kind == Kind::kAnnotate ||
         kind == Kind::kSetVisibility;
}

uint64_t PlannerMicros(const net::TraceSummary& trace) {
  uint64_t total = 0;
  for (const auto& [name, micros] : trace.spans_micros) total += micros;
  return total;
}

/// Keeps a benchmark result alive past the optimizer.
template <typename T>
void Sink(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

uint64_t Traffic::AckedMutations() const {
  uint64_t n = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (outs[i].ok && IsMutation(ops[i].kind)) ++n;
  }
  return n;
}

int64_t LatencyMicros(const Traffic& traffic, size_t i) {
  const Outcome& out = traffic.outs[i];
  const int64_t begin =
      traffic.open_loop ? traffic.start_us + traffic.ops[i].due_us : out.sent_us;
  return out.done_us - begin;
}

namespace {

/// Figures of consecutive windows of kOpsPerWindow completed user ops
/// (in start order; the last window takes the rest). The run's figures
/// are medians (latency) or upper quartiles (throughput) over windows,
/// so that a burst of interference from outside the benchmark moves a
/// few windows, not the run's figure.
struct Windows {
  std::vector<double> rates, p50s, p99s;
  size_t ops = 0;
};

Windows SplitWindows(const std::vector<const Traffic*>& traffics,
                     RunResult* result) {
  struct Timed {
    int64_t begin_us;
    int64_t done_us;
    double latency_us;
  };
  Windows w;
  for (const Traffic* traffic : traffics) {
    std::vector<Timed> timed;  // Completed user ops (not Checkpoint).
    for (size_t i = 0; i < traffic->ops.size(); ++i) {
      const Outcome& out = traffic->outs[i];
      if (!out.ok || traffic->ops[i].kind == Kind::kCheckpoint) continue;
      const int64_t latency = LatencyMicros(*traffic, i);
      timed.push_back(
          {out.done_us - latency, out.done_us, static_cast<double>(latency)});
    }
    w.ops += timed.size();
    std::sort(timed.begin(), timed.end(), [](const Timed& a, const Timed& b) {
      return a.begin_us < b.begin_us;
    });
    const size_t windows = timed.size() / kOpsPerWindow;
    if (windows == 0) {
      result->errors.push_back("only " + std::to_string(timed.size()) +
                               " completed ops; a window's p99 needs " +
                               std::to_string(kOpsPerWindow));
      continue;
    }
    for (size_t k = 0; k < windows; ++k) {
      const size_t lo = k * kOpsPerWindow;
      const size_t hi = k + 1 == windows ? timed.size() : lo + kOpsPerWindow;
      std::vector<double> latency;
      int64_t end_us = timed[lo].done_us;
      for (size_t i = lo; i < hi; ++i) {
        latency.push_back(timed[i].latency_us);
        end_us = std::max(end_us, timed[i].done_us);
      }
      const Distribution d = Summarize(std::move(latency));
      w.p50s.push_back(d.p50);
      w.p99s.push_back(d.p99);
      w.rates.push_back(Ratio(static_cast<double>(hi - lo),
                              static_cast<double>(end_us - timed[lo].begin_us) /
                                  1e6));
    }
  }
  return w;
}

std::string WindowNote(const Windows& w) {
  return "median of " + std::to_string(w.rates.size()) + " windows";
}

}  // namespace

void CountOutcomes(const Traffic& traffic, RunResult* result) {
  for (const Outcome& out : traffic.outs) {
    ++result->attempted;
    if (!out.ok) ++result->failed;
  }
}

void AddThroughput(const std::vector<const Traffic*>& traffics, double pct,
                   RunResult* result) {
  const Windows w = SplitWindows(traffics, result);
  char note[64];
  if (pct == 100) {
    std::snprintf(note, sizeof note, "max of %zu windows", w.rates.size());
  } else {
    std::snprintf(note, sizeof note, "p%g of %zu windows", pct, w.rates.size());
  }
  result->report.Add("ops_per_s", Percentile(w.rates, pct), "1/s", w.ops,
                     note);
}

void AddClientMetrics(const std::vector<const Traffic*>& traffics,
                      RunResult* result) {
  std::vector<double> by_kind[kNumKinds];
  std::vector<double> late;
  std::vector<double> exec;
  const uint64_t attempted0 = result->attempted, failed0 = result->failed;
  for (const Traffic* traffic : traffics) {
    CountOutcomes(*traffic, result);
    for (size_t i = 0; i < traffic->ops.size(); ++i) {
      const Op& op = traffic->ops[i];
      const Outcome& out = traffic->outs[i];
      if (!out.ok) continue;
      by_kind[static_cast<size_t>(op.kind)].push_back(
          static_cast<double>(LatencyMicros(*traffic, i)));
      if (traffic->open_loop) {
        late.push_back(
            static_cast<double>(out.sent_us - (traffic->start_us + op.due_us)));
      }
      if (op.kind == Kind::kAppend && out.append.exec_micros > 0) {
        exec.push_back(static_cast<double>(out.append.exec_micros));
      }
    }
  }
  const double attempted = static_cast<double>(result->attempted - attempted0);
  const double failed = static_cast<double>(result->failed - failed0);

  const Windows w = SplitWindows(traffics, result);
  Report& r = result->report;
  r.Add("client.latency_p50_us", Median(w.p50s), "us", w.ops,
        "p50, " + WindowNote(w));
  r.Add("client.latency_p99_us", Median(w.p99s), "us", w.ops,
        "p99, " + WindowNote(w));
  r.AddLatency("client.search", Summarize(by_kind[size_t(Kind::kSearch)]));
  r.AddLatency("client.recommend", Summarize(by_kind[size_t(Kind::kRecommend)]));
  r.AddLatency("client.append", Summarize(by_kind[size_t(Kind::kAppend)]));
  const Distribution checkpoint =
      Summarize(by_kind[size_t(Kind::kCheckpoint)]);
  r.Add("storage.checkpoint_rtt_ms_p50", checkpoint.p50 / 1000, "ms",
        checkpoint.count, "p50");
  const Distribution lateness = Summarize(late);
  r.Add("loadgen.late_p99_us", lateness.p99, "us", lateness.count, "p99");
  r.Add("loadgen.ops_attempted", attempted, "count");
  r.Add("loadgen.ops_failed", failed, "count");
  r.Add("loadgen.failed_frac", Ratio(failed, attempted), "ratio");
  const Distribution e = Summarize(exec);
  r.Add("profiler.exec_us_mean", e.mean, "us", e.count, "mean");
}

void AddLayerMetrics(const Traffic& traffic, const RegistryDelta& reg,
                     const net::StatsResult& before,
                     const net::StatsResult& after, Report* r) {
  // Wire bytes per request and response, from the daemon's own per-op
  // counters (frame headers included).
  double count = 0, bytes_in = 0, bytes_out = 0;
  for (const net::OpStatsRow& row : after.per_op) {
    count += static_cast<double>(row.count);
    bytes_in += static_cast<double>(row.bytes_in);
    bytes_out += static_cast<double>(row.bytes_out);
    for (const net::OpStatsRow& old : before.per_op) {
      if (old.op != row.op) continue;
      count -= static_cast<double>(old.count);
      bytes_in -= static_cast<double>(old.bytes_in);
      bytes_out -= static_cast<double>(old.bytes_out);
    }
  }
  r->Add("net.req_bytes_per_op", Ratio(bytes_in, count), "B");
  r->Add("net.resp_bytes_per_op", Ratio(bytes_out, count), "B");

  const double hits = reg.Counter("cqms_planner_visibility_cache_hits_total");
  const double misses = reg.Counter("cqms_planner_visibility_cache_misses_total");
  r->Add("metaquery.lsh_candidates_per_probe",
         Ratio(reg.Counter("cqms_knn_lsh_candidates_total"),
               reg.Counter("cqms_knn_lsh_probes_total")),
         "count");
  r->Add("metaquery.vis_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  r->Add("metaquery.fallbacks_per_search",
         Ratio(reg.Counter("cqms_knn_table_union_fallbacks_total") +
                   reg.Counter("cqms_knn_full_scan_fallbacks_total"),
               reg.Counter("cqms_planner_queries_total")),
         "ratio");

  // The registry is process-wide: in durable_ingest the in-process
  // follower's publishes are counted with the primary's.
  const double publish_us = reg.HistogramSum("cqms_publish_micros");
  const double publishes = reg.HistogramCount("cqms_publish_micros");
  r->Add("storage.publish_us_mean", Ratio(publish_us, publishes), "us",
         static_cast<size_t>(publishes), "mean");
  r->Add("storage.publish_busy_frac", Ratio(publish_us, traffic.wall_us()),
         "ratio");
  r->Add("storage.publishes_per_mutation",
         Ratio(reg.Counter("cqms_views_published_total"),
               static_cast<double>(traffic.AckedMutations())),
         "ratio");
  r->Add("storage.arena_garbage_mb",
         static_cast<double>(after.arena_garbage_bytes) / kMiB, "MiB");
  r->Add("storage.wal_bytes_per_record",
         Ratio(reg.Counter("cqms_wal_bytes_total"),
               reg.Counter("cqms_wal_appends_total")),
         "B");
  r->Add("storage.checkpoints", reg.Counter("cqms_checkpoints_total"), "count");
  r->Add("storage.checkpoint_ms_mean",
         Ratio(reg.HistogramSum("cqms_checkpoint_micros"),
               reg.HistogramCount("cqms_checkpoint_micros")) /
             1000,
         "ms", static_cast<size_t>(reg.HistogramCount("cqms_checkpoint_micros")),
         "mean");
  const double refreshes = reg.Counter("cqms_miner_refreshes_total");
  r->Add("miner.refresh_ms_mean",
         Ratio(reg.HistogramSum("cqms_miner_stage_micros"), refreshes) / 1000,
         "ms", static_cast<size_t>(refreshes), "mean");
  r->Add("miner.pairs_computed", reg.Counter("cqms_miner_pairs_computed_total"),
         "count");
  r->Add("repl.snapshot_bootstraps",
         reg.Counter("cqms_repl_snapshot_bootstraps_total"), "count");
}

void AddTraceMetrics(const Traffic& traffic, Report* r) {
  static const char* const kStages[] = {"resolve_predicates",
                                        "generate_candidates", "filter_score",
                                        "rank"};
  static const char* const kMetrics[] = {"metaquery.resolve_us",
                                         "metaquery.generate_us",
                                         "metaquery.filter_score_us",
                                         "metaquery.rank_us"};
  std::vector<double> stage[4];
  std::vector<double> overhead;
  double candidates = 0, matches = 0;
  for (size_t i = 0; i < traffic.ops.size(); ++i) {
    const Outcome& out = traffic.outs[i];
    if (traffic.ops[i].kind != Kind::kSearch || !out.ok ||
        !out.search.trace.has_value()) {
      continue;
    }
    const net::TraceSummary& t = *out.search.trace;
    for (const auto& [name, micros] : t.spans_micros) {
      for (size_t s = 0; s < 4; ++s) {
        if (name == kStages[s]) stage[s].push_back(static_cast<double>(micros));
      }
    }
    for (const auto& [name, value] : t.counters) {
      if (name == "candidates") candidates += static_cast<double>(value);
      if (name == "matches_prefilter") matches += static_cast<double>(value);
    }
    overhead.push_back(static_cast<double>(out.done_us - out.sent_us) -
                       static_cast<double>(PlannerMicros(t)));
  }
  for (size_t s = 0; s < 4; ++s) {
    const Distribution d = Summarize(stage[s]);
    r->Add(kMetrics[s], d.mean, "us", d.count, "mean");
  }
  r->Add("metaquery.candidates_per_match", Ratio(candidates, matches), "ratio");
  const Distribution o = Summarize(overhead);
  r->Add("server.search_overhead_us_p50", o.p50, "us", o.count, "p50");
}

std::vector<std::pair<cqms::storage::QueryId, std::string>> RecommendOracle(
    const cqms::Cqms& cqms, const std::string& viewer, const std::string& text,
    size_t k) {
  std::vector<std::pair<cqms::storage::QueryId, std::string>> out;
  storage::QueryRecord probe = storage::BuildRecordFromText(
      text, viewer, 0, storage::SignatureMode::kTransient);
  std::shared_ptr<const storage::ReadViewState> view = cqms.CurrentReadView();
  if (probe.parse_failed() || view == nullptr) return out;
  cqms::metaquery::MetaQueryRequest req;
  req.SimilarTo(probe);
  req.Limit(k * 4 + 8);
  cqms::metaquery::MetaQueryResponse resp = cqms.Search(viewer, req);
  std::vector<uint64_t> seen;
  for (const cqms::metaquery::MetaQueryMatch& m : resp.matches) {
    if (out.size() >= k) break;
    const storage::QueryRecord* rec = view->Get(m.id);
    if (rec == nullptr || rec->parse_failed()) continue;
    if (std::find(seen.begin(), seen.end(), rec->fingerprint) != seen.end()) {
      continue;
    }
    seen.push_back(rec->fingerprint);
    out.emplace_back(m.id, rec->text);
  }
  return out;
}

void AddReplayMetrics(cqms::Cqms* cqms, const Traffic& traffic, Report* r) {
  constexpr size_t kSamples = 256;
  std::vector<double> codec, parse, recommend_overhead;
  const size_t n = traffic.ops.size();
  for (size_t s = 0; s < kSamples && s < n; ++s) {
    const size_t i = s * n / std::min(kSamples, n);
    const Op& op = traffic.ops[i];
    const Outcome& out = traffic.outs[i];
    if (!out.ok) continue;
    // One request and one response through the wire codec, both ways.
    int64_t t0 = NowMicros();
    cqms::BinaryWriter w;
    bool decoded = true;
    switch (op.kind) {
      case Kind::kSearch: {
        net::EncodeSearchRequest(&w, net::SearchRequest{op.user, op.spec});
        net::EncodeSearchResult(&w, out.search);
        cqms::BinaryReader rd(w.data());
        net::SearchRequest req;
        net::SearchResult res;
        decoded = net::DecodeSearchRequest(&rd, &req) &&
                  net::DecodeSearchResult(&rd, &res);
        break;
      }
      case Kind::kRecommend: {
        net::EncodeRecommendRequest(&w, net::RecommendRequest{op.user, op.text, 5});
        net::EncodeRecommendResult(&w, out.recommend);
        cqms::BinaryReader rd(w.data());
        net::RecommendRequest req;
        net::RecommendResult res;
        decoded = net::DecodeRecommendRequest(&rd, &req) &&
                  net::DecodeRecommendResult(&rd, &res);
        break;
      }
      case Kind::kAppend: {
        net::EncodeAppendRequest(&w, net::AppendRequest{op.user, op.text, true});
        net::EncodeAppendResult(&w, out.append);
        cqms::BinaryReader rd(w.data());
        net::AppendRequest req;
        net::AppendResult res;
        decoded = net::DecodeAppendRequest(&rd, &req) &&
                  net::DecodeAppendResult(&rd, &res);
        break;
      }
      default:
        continue;
    }
    if (decoded) codec.push_back(static_cast<double>(NowMicros() - t0));

    const std::string& text =
        op.kind == Kind::kSearch && op.spec.similarity.has_value()
            ? op.spec.similarity->probe_text
            : op.text;
    if (op.kind == Kind::kSearch && !op.spec.similarity.has_value()) continue;
    t0 = NowMicros();
    storage::QueryRecord probe = storage::BuildRecordFromText(
        text, op.user, 0, storage::SignatureMode::kTransient);
    parse.push_back(static_cast<double>(NowMicros() - t0));
    Sink(probe);

    if (op.kind == Kind::kRecommend) {
      t0 = NowMicros();
      auto expected = RecommendOracle(*cqms, op.user, op.text, 5);
      Sink(expected);
      const double in_process = static_cast<double>(NowMicros() - t0);
      recommend_overhead.push_back(
          static_cast<double>(out.done_us - out.sent_us) - in_process);
    }
  }
  const Distribution c = Summarize(codec);
  r->Add("net.codec_us_per_op", c.mean, "us", c.count, "mean");
  const Distribution p = Summarize(parse);
  r->Add("sql.parse_us", p.mean, "us", p.count, "mean");
  const Distribution ro = Summarize(recommend_overhead);
  r->Add("server.recommend_overhead_us_p50", ro.p50, "us", ro.count, "p50");

  constexpr int kPins = 20000;
  const int64_t t0 = NowMicros();
  for (int i = 0; i < kPins; ++i) {
    storage::PinnedView pin = cqms->store()->PinView();
    Sink(pin);
  }
  r->Add("storage.pin_ns",
         static_cast<double>(NowMicros() - t0) * 1000.0 / kPins, "ns", kPins,
         "mean");
}

void WriteSpans(const std::string& path, const Traffic& traffic) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream f(path, std::ios::trunc);
  for (size_t i = 0; i < traffic.ops.size(); ++i) {
    const Op& op = traffic.ops[i];
    const Outcome& out = traffic.outs[i];
    f << "{\"trace\":" << i << ",\"span\":\"client." << KindName(op.kind)
      << "\",\"parent\":null,\"conn\":" << op.conn
      << ",\"start_us\":" << out.sent_us - traffic.start_us
      << ",\"end_us\":" << out.done_us - traffic.start_us
      << ",\"latency_us\":" << LatencyMicros(traffic, i)
      << ",\"ok\":" << (out.ok ? "true" : "false") << "}\n";
    if (op.kind != Kind::kSearch || !out.search.trace.has_value()) continue;
    const net::TraceSummary& t = *out.search.trace;
    f << "{\"trace\":" << i << ",\"span\":\"server.search\",\"parent\":\"client."
      << KindName(op.kind) << "\",\"generator\":\"" << t.generator
      << "\",\"planner_us\":" << PlannerMicros(t) << "}\n";
    for (const auto& [name, micros] : t.spans_micros) {
      f << "{\"trace\":" << i << ",\"span\":\"metaquery." << name
        << "\",\"parent\":\"server.search\",\"dur_us\":" << micros << "}\n";
    }
  }
}

}  // namespace perfbench
