#include "script.h"

#include <cmath>
#include <cstdlib>

#include "common/binary_codec.h"
#include "storage/record_builder.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

/// Builds a lab and returns the generator's ground truth alongside it.
std::unique_ptr<Lab> BuildLabWithTruth(size_t sessions, uint64_t seed,
                                       size_t rows_per_table,
                                       cqms::workload::GroundTruth* truth) {
  auto lab = std::make_unique<Lab>();
  cqms::CqmsOptions options;
  options.clock = &lab->clock;
  lab->cqms = std::make_unique<cqms::Cqms>(options);
  cqms::Status s = cqms::workload::PopulateLakeDatabase(
      lab->cqms->database(), rows_per_table);
  if (!s.ok()) {
    std::fprintf(stderr, "populate: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  cqms::workload::WorkloadOptions w;
  w.num_sessions = sessions;
  w.seed = seed;
  cqms::workload::RegisterUsers(lab->cqms->store(), w);
  *truth = cqms::workload::GenerateLog(&lab->cqms->profiler(),
                                       lab->cqms->store(), &lab->clock, w);
  return lab;
}

bool Parses(const std::string& text) {
  return !storage::BuildRecordFromText(text, "", 0,
                                       storage::SignatureMode::kTransient)
              .parse_failed();
}

}  // namespace

std::unique_ptr<Lab> BuildLab(size_t sessions, uint64_t seed) {
  cqms::workload::GroundTruth truth;
  return BuildLabWithTruth(sessions, seed, kLabRowsPerTable, &truth);
}

std::vector<ScriptQuery> GenerateSessionQueries(size_t sessions,
                                                uint64_t seed) {
  cqms::workload::GroundTruth truth;
  // Only the texts are kept, so the throwaway database can be tiny.
  std::unique_ptr<Lab> lab = BuildLabWithTruth(sessions, seed, 3, &truth);
  std::vector<ScriptQuery> out;
  for (size_t s = 0; s < truth.sessions.size(); ++s) {
    for (storage::QueryId id : truth.sessions[s]) {
      const storage::QueryRecord* r = lab->cqms->store()->Get(id);
      out.push_back({r->user, r->text, s});
    }
  }
  return out;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kSearch:
      return "search";
    case Kind::kRecommend:
      return "recommend";
    case Kind::kAppend:
      return "append";
    case Kind::kAnnotate:
      return "annotate";
    case Kind::kSetVisibility:
      return "set_visibility";
    case Kind::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

std::string SerializeScript(const std::vector<Op>& ops) {
  cqms::BinaryWriter w;
  for (const Op& op : ops) {
    w.PutU8(static_cast<uint8_t>(op.kind));
    w.PutVarint(op.conn);
    w.PutZigzag(op.due_us);
    w.PutString(op.user);
    w.PutString(op.text);
    w.PutVarint(op.target);
    w.PutU8(static_cast<uint8_t>(op.visibility));
    if (op.kind == Kind::kSearch) {
      net::SearchRequest req{op.user, op.spec};
      net::EncodeSearchRequest(&w, req);
    }
  }
  return w.Take();
}

net::SearchSpec SpecFromProbe(const storage::QueryRecord& probe,
                              int search_class, cqms::Rng* rng) {
  net::SearchSpec spec;
  spec.limit = 10;
  const cqms::sql::QueryComponents& c = probe.components;
  const std::string table =
      c.tables.empty() ? "watertemp" : c.tables[rng->Uniform(c.tables.size())];
  switch (search_class) {
    case 0: {
      std::string words = table;
      if (!c.attributes.empty()) {
        words += " " + c.attributes[rng->Uniform(c.attributes.size())].second;
      }
      spec.keyword = net::KeywordSpec{words, true};
      break;
    }
    case 1: {
      net::FeatureSpec feature;
      feature.tables = {table};
      std::vector<const cqms::sql::PredicateFeature*> selections;
      for (const cqms::sql::PredicateFeature& p : c.predicates) {
        if (!p.is_join && !p.relation.empty()) selections.push_back(&p);
      }
      if (!selections.empty()) {
        const cqms::sql::PredicateFeature* p =
            selections[rng->Uniform(selections.size())];
        feature.predicates.push_back({p->relation, p->attribute, p->op});
      }
      spec.feature = std::move(feature);
      break;
    }
    case 2: {
      cqms::metaquery::StructuralPattern pattern;
      pattern.required_tables = c.tables;
      pattern.requires_group_by = !c.group_by.empty();
      spec.structure = std::move(pattern);
      break;
    }
    default: {
      net::SimilaritySpec similarity;
      similarity.probe_text = probe.text;
      spec.similarity = std::move(similarity);
      break;
    }
  }
  return spec;
}

std::vector<Op> BuildExploreScript(const storage::QueryStore& store,
                                   uint64_t seed, size_t n, double rate_per_s,
                                   uint32_t conns) {
  cqms::Rng rng(seed ^ 0xe8e8e8e8ull);
  std::vector<const storage::QueryRecord*> probes;
  for (const storage::QueryRecord& r : store.records()) {
    if (!r.parse_failed()) probes.push_back(&r);
  }
  std::vector<Op> ops;
  ops.reserve(n);
  double t_us = 0;
  for (size_t i = 0; i < n; ++i) {
    // Exponential inter-arrival gaps: independent users, Poisson arrivals.
    t_us += -std::log(1.0 - rng.UniformDouble()) / rate_per_s * 1e6;
    Op op;
    op.conn = static_cast<uint32_t>(i % conns);
    op.due_us = static_cast<int64_t>(t_us);
    op.user = cqms::workload::UserName(rng.Uniform(8));
    const storage::QueryRecord& probe = *probes[rng.Uniform(probes.size())];
    const double u = rng.UniformDouble();
    if (u < 0.75) {
      const int cls = u < 0.20 ? 0 : u < 0.35 ? 1 : u < 0.50 ? 2 : 3;
      op.kind = Kind::kSearch;
      op.spec = SpecFromProbe(probe, cls, &rng);
    } else {
      op.kind = Kind::kRecommend;
      op.text = probe.text;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<Op> BuildSessionScript(const std::vector<ScriptQuery>& queries,
                                   uint64_t seed, size_t n, uint32_t conns) {
  cqms::Rng rng(seed ^ 0x5e5510115ull);
  // Sessions are dealt round-robin to connections; each connection
  // walks its sessions' queries in order (wrapping if it runs out).
  std::vector<std::vector<const ScriptQuery*>> queue(conns);
  for (const ScriptQuery& q : queries) {
    queue[q.session % conns].push_back(&q);
  }
  std::vector<Op> ops;
  for (uint32_t c = 0; c < conns; ++c) {
    const size_t budget = n / conns + (c < n % conns ? 1 : 0);
    size_t count = 0;
    size_t pos = 0;
    uint32_t appended = 0;
    const ScriptQuery* current = queue[c].front();
    while (count < budget) {
      const double u = rng.UniformDouble();
      Op op;
      op.conn = c;
      op.user = current->user;
      if (u < 0.077 && appended > 0) {
        op.kind = Kind::kAnnotate;
        op.target = static_cast<uint32_t>(rng.Uniform(appended));
        op.text = "checked against the lab notebook, run " +
                  std::to_string(rng.Uniform(1000));
      } else if (u < 0.462 || budget - count < 2) {
        op.kind = Kind::kSearch;
        storage::QueryRecord probe = storage::BuildRecordFromText(
            current->text, current->user, 0, storage::SignatureMode::kTransient);
        op.spec = SpecFromProbe(probe, static_cast<int>(rng.Uniform(4)), &rng);
      } else {
        current = queue[c][pos++ % queue[c].size()];
        op.kind = Kind::kAppend;
        op.user = current->user;
        op.text = current->text;
        ops.push_back(op);
        ++count;
        ++appended;
        // Recommend on the text just run; an unparsable text cannot be
        // recommended for, so the follow-up is a keyword search instead.
        if (Parses(op.text)) {
          op.kind = Kind::kRecommend;
        } else {
          op.kind = Kind::kSearch;
          op.spec = net::SearchSpec();
          op.spec.keyword = net::KeywordSpec{"lake", true};
          op.spec.limit = 10;
        }
      }
      ops.push_back(std::move(op));
      ++count;
    }
  }
  return ops;
}

std::vector<Op> BuildIngestScript(const std::vector<ScriptQuery>& queries,
                                  uint64_t seed, size_t n,
                                  size_t checkpoint_every) {
  cqms::Rng rng(seed ^ 0x1a6e57ull);
  std::vector<Op> ops;
  std::vector<const ScriptQuery*> appended;
  for (size_t i = 0; i < n; ++i) {
    Op op;
    const double u = rng.UniformDouble();
    if (i > 0 && i % checkpoint_every == 0) {
      op.kind = Kind::kCheckpoint;
    } else if (u < 0.08 && !appended.empty()) {
      op.kind = Kind::kAnnotate;
      op.target = static_cast<uint32_t>(rng.Uniform(appended.size()));
      op.user = cqms::workload::UserName(rng.Uniform(8));
      op.text = "imported from the 2008 campaign log, batch " +
                std::to_string(rng.Uniform(100));
    } else if (u < 0.12 && !appended.empty()) {
      op.kind = Kind::kSetVisibility;
      op.target = static_cast<uint32_t>(rng.Uniform(appended.size()));
      op.user = appended[op.target]->user;  // Only the owner may.
      op.visibility = static_cast<storage::Visibility>(rng.Uniform(3));
    } else {
      const ScriptQuery& q = queries[appended.size() % queries.size()];
      op.kind = Kind::kAppend;
      op.user = q.user;
      op.text = q.text;
      appended.push_back(&q);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace perfbench
