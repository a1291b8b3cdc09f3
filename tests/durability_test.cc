#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary_codec.h"
#include "common/string_util.h"
#include "core/cqms.h"
#include "metaquery/knn.h"
#include "metaquery/meta_query_executor.h"
#include "sql/parser.h"
#include "storage/durable_store.h"
#include "storage/minhash.h"
#include "storage/persistence.h"
#include "storage/record_builder.h"
#include "storage/snapshot_v2.h"
#include "storage/wal.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace cqms::storage {
namespace {

using testing_util::Harness;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Clears every file a DurableStore may leave in `dir` — both snapshot
/// generations, both WAL generations, and stranded tmp files — so a
/// test rerun starts from a genuinely empty directory.
void RemoveDurableFiles(const std::string& dir) {
  for (const char* name :
       {"/snapshot.cqms", "/snapshot.cqms.1", "/snapshot.cqms.tmp",
        "/wal.log", "/wal.log.1"}) {
    std::remove((dir + name).c_str());
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// A populated database plus a synthetic multi-user log of (at least)
/// `min_queries` profiled queries — the round-trip corpus.
struct LogFixture {
  SimulatedClock clock{0};
  db::Database database{&clock};
  QueryStore store;
  std::unique_ptr<profiler::QueryProfiler> profiler;
  workload::WorkloadOptions options;
  workload::GroundTruth truth;

  explicit LogFixture(size_t min_queries, size_t rows_per_table = 60) {
    Status s = workload::PopulateLakeDatabase(&database, rows_per_table);
    EXPECT_TRUE(s.ok());
    profiler = std::make_unique<profiler::QueryProfiler>(&database, &store,
                                                         &clock);
    options.num_sessions = min_queries / 5 + 1;
    workload::RegisterUsers(&store, options);
    truth = workload::GenerateLog(profiler.get(), &store, &clock, options);
  }
};

/// Cached ~5k-query fixture shared by the equality tests (generation
/// dominates their runtime). Mutated by no test — they snapshot it.
LogFixture& BigFixture() {
  static LogFixture* fixture = new LogFixture(5000);
  return *fixture;
}

void ExpectSignaturesEqual(const SimilaritySignature& a,
                           const SimilaritySignature& b, QueryId id) {
  EXPECT_EQ(a.valid, b.valid) << "id " << id;
  EXPECT_EQ(a.tables, b.tables) << "id " << id;
  EXPECT_EQ(a.predicate_skeletons, b.predicate_skeletons) << "id " << id;
  EXPECT_EQ(a.attributes, b.attributes) << "id " << id;
  EXPECT_EQ(a.projections, b.projections) << "id " << id;
  EXPECT_EQ(a.text_tokens, b.text_tokens) << "id " << id;
  EXPECT_EQ(a.output_rows, b.output_rows) << "id " << id;
  EXPECT_EQ(a.output_empty_computed, b.output_empty_computed) << "id " << id;
}

void ExpectRecordsEqual(const QueryRecord& a, const QueryRecord& b) {
  ASSERT_EQ(a.id, b.id);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.canonical_text, b.canonical_text);
  EXPECT_EQ(a.skeleton, b.skeleton);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.skeleton_fingerprint, b.skeleton_fingerprint);
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.timestamp, b.timestamp);
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.parse_failed(), b.parse_failed());

  EXPECT_EQ(a.stats.execution_micros, b.stats.execution_micros);
  EXPECT_EQ(a.stats.result_rows, b.stats.result_rows);
  EXPECT_EQ(a.stats.rows_scanned, b.stats.rows_scanned);
  EXPECT_EQ(a.stats.succeeded, b.stats.succeeded);
  EXPECT_EQ(a.stats.error, b.stats.error);
  EXPECT_EQ(a.stats.plan, b.stats.plan);

  ASSERT_EQ(a.annotations.size(), b.annotations.size());
  for (size_t i = 0; i < a.annotations.size(); ++i) {
    EXPECT_EQ(a.annotations[i].author, b.annotations[i].author);
    EXPECT_EQ(a.annotations[i].timestamp, b.annotations[i].timestamp);
    EXPECT_EQ(a.annotations[i].text, b.annotations[i].text);
    EXPECT_EQ(a.annotations[i].fragment, b.annotations[i].fragment);
  }

  const sql::QueryComponents& ca = a.components;
  const sql::QueryComponents& cb = b.components;
  EXPECT_EQ(ca.tables, cb.tables);
  EXPECT_EQ(ca.attributes, cb.attributes);
  EXPECT_EQ(ca.projections, cb.projections);
  ASSERT_EQ(ca.predicates.size(), cb.predicates.size());
  for (size_t i = 0; i < ca.predicates.size(); ++i) {
    EXPECT_TRUE(ca.predicates[i] == cb.predicates[i]) << "id " << a.id;
  }
  EXPECT_EQ(ca.group_by, cb.group_by);
  EXPECT_EQ(ca.order_by, cb.order_by);
  EXPECT_EQ(ca.aggregates, cb.aggregates);
  EXPECT_EQ(ca.has_subquery, cb.has_subquery);
  EXPECT_EQ(ca.has_distinct, cb.has_distinct);
  EXPECT_EQ(ca.select_star, cb.select_star);
  EXPECT_EQ(ca.num_joins, cb.num_joins);
  EXPECT_EQ(ca.num_tables, cb.num_tables);
  EXPECT_EQ(ca.max_nesting_depth, cb.max_nesting_depth);
  EXPECT_EQ(ca.limit, cb.limit);

  ExpectSignaturesEqual(a.signature, b.signature, a.id);
  EXPECT_EQ(a.sketch.valid, b.sketch.valid);
  EXPECT_EQ(a.sketch.mins, b.sketch.mins);
}

void ExpectSpansEqual(ScoringColumns::SymbolSpan a,
                      ScoringColumns::SymbolSpan b, QueryId id) {
  ASSERT_EQ(a.size, b.size) << "id " << id;
  for (size_t i = 0; i < a.size; ++i) EXPECT_EQ(a.data[i], b.data[i]);
}

void ExpectColumnsEqual(const QueryStore& a, const QueryStore& b, QueryId id) {
  const ScoringColumns& ca = a.scoring();
  const ScoringColumns& cb = b.scoring();
  EXPECT_EQ(ca.flags(id), cb.flags(id));
  EXPECT_EQ(ca.quality(id), cb.quality(id));
  EXPECT_EQ(ca.timestamp(id), cb.timestamp(id));
  EXPECT_EQ(ca.owner(id), cb.owner(id));
  EXPECT_EQ(ca.popularity(id), cb.popularity(id));
  EXPECT_EQ(ca.signature_valid(id), cb.signature_valid(id));
  EXPECT_EQ(ca.parse_failed(id), cb.parse_failed(id));
  EXPECT_EQ(ca.lowered_text(id), cb.lowered_text(id));
  ExpectSpansEqual(ca.tables(id), cb.tables(id), id);
  ExpectSpansEqual(ca.skeletons(id), cb.skeletons(id), id);
  ExpectSpansEqual(ca.attributes(id), cb.attributes(id), id);
  ExpectSpansEqual(ca.projections(id), cb.projections(id), id);
  ExpectSpansEqual(ca.tokens(id), cb.tokens(id), id);
  ScoringColumns::HashSpan oa = ca.output_rows(id);
  ScoringColumns::HashSpan ob = cb.output_rows(id);
  ASSERT_EQ(oa.size, ob.size) << "id " << id;
  for (size_t i = 0; i < oa.size; ++i) EXPECT_EQ(oa.data[i], ob.data[i]);
}

void ExpectResponsesEqual(const metaquery::MetaQueryResponse& a,
                          const metaquery::MetaQueryResponse& b,
                          const std::string& label) {
  ASSERT_EQ(a.matches.size(), b.matches.size()) << label;
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].id, b.matches[i].id) << label << " rank " << i;
    // Byte-identical, not nearly-equal: scoring reads restored state.
    EXPECT_EQ(a.matches[i].similarity, b.matches[i].similarity)
        << label << " rank " << i;
    EXPECT_EQ(a.matches[i].score, b.matches[i].score) << label << " rank " << i;
  }
}

TEST(SnapshotV2Test, RoundTripEqualityOnSeededLogWithoutRetokenizing) {
  LogFixture& f = BigFixture();
  QueryStore& store = f.store;
  ASSERT_GE(store.size(), 4000u);

  std::string path = TempPath("cqms_v2_roundtrip.snap");
  ASSERT_TRUE(SaveSnapshotV2(store, path).ok());

  // The tentpole guarantee: a binary restore never tokenizes and never
  // parses — cold-start is one sequential read, not a re-profiling run.
  uint64_t words_before = ExtractWordsCallCount();
  uint64_t parses_before = sql::ParseCallCount();
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  EXPECT_EQ(ExtractWordsCallCount() - words_before, 0u);
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 0u);

  ASSERT_EQ(loaded.size(), store.size());
  EXPECT_EQ(loaded.max_timestamp(), store.max_timestamp());
  for (const QueryRecord& r : store.records()) {
    ExpectRecordsEqual(r, *loaded.Get(r.id));
    ExpectColumnsEqual(store, loaded, r.id);
  }

  // Secondary indexes answer identically (spot the load-bearing ones).
  EXPECT_EQ(loaded.QueriesUsingTable("watertemp"),
            store.QueriesUsingTable("watertemp"));
  EXPECT_EQ(loaded.QueriesWithKeyword("salinity"),
            store.QueriesWithKeyword("salinity"));
  EXPECT_EQ(loaded.lsh().entry_count(), store.lsh().entry_count());

  // ACL: every user sees exactly the same log slice.
  for (size_t u = 0; u < f.options.num_users; ++u) {
    std::string user = workload::UserName(u);
    EXPECT_EQ(loaded.VisibleIds(user), store.VisibleIds(user)) << user;
  }
}

TEST(SnapshotV2Test, PlannerResultsByteIdenticalAfterRestore) {
  LogFixture& f = BigFixture();
  QueryStore& store = f.store;
  std::string path = TempPath("cqms_v2_planner.snap");
  ASSERT_TRUE(SaveSnapshotV2(store, path).ok());
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());

  metaquery::MetaQueryExecutor before(&store);
  metaquery::MetaQueryExecutor after(&loaded);
  QueryRecord probe = BuildRecordFromText(
      "SELECT T.temp FROM WaterSalinity S, WaterTemp T "
      "WHERE S.loc_x = T.loc_x AND T.temp < 20",
      "user0", 0, SignatureMode::kTransient);

  const std::string viewer = "user1";
  {
    metaquery::MetaQueryRequest req;
    req.WithKeywords("salinity temp").Limit(25);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "keyword");
  }
  {
    metaquery::MetaQueryRequest req;
    req.WithSubstring("where").InLogOrder().Limit(50);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "substring");
  }
  {
    metaquery::StructuralPattern pattern;
    pattern.required_tables = {"WaterTemp"};
    pattern.requires_group_by = true;
    metaquery::MetaQueryRequest req;
    req.WithStructure(pattern).Limit(25);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "structure");
  }
  {
    // kNN through the planner, exhaustive candidates.
    metaquery::CandidateOptions exhaustive;
    exhaustive.use_lsh = false;
    metaquery::MetaQueryRequest req;
    req.SimilarTo(probe, {}, exhaustive).Limit(10);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "knn exhaustive");
  }
  {
    // LSH path: stored sketches were adopted verbatim (identity symbol
    // remap within one process), so even the approximate candidate set
    // is byte-identical.
    metaquery::CandidateOptions lsh;
    lsh.lsh_min_log_size = 0;
    metaquery::MetaQueryRequest req;
    req.SimilarTo(probe, {}, lsh).Limit(10);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "knn lsh");
  }
  {
    // Combined conjunction through the posting-intersection generator.
    metaquery::FeatureQuery feature;
    feature.UsesTable("WaterTemp");
    metaquery::MetaQueryRequest req;
    req.WithKeywords("temp").WithFeature(feature).SimilarTo(probe).Limit(10);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "combined");
  }

  {
    // kNN with default candidate options.
    metaquery::MetaQueryRequest req;
    req.SimilarTo(probe).Limit(10);
    ExpectResponsesEqual(before.Execute("user0", req),
                         after.Execute("user0", req), "knn default");
  }
}

TEST(SnapshotV2Test, MutatedStateSurvivesRoundTrip) {
  Harness h;
  QueryId a = h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  QueryId b = h.Log("alice", "SELECT * FROM CityLocations");
  QueryId c = h.Log("bob", "SELEKT broken");
  h.store.AddUser("alice", {"oceans"});
  h.store.AddUser("bob", {"oceans"});
  ASSERT_TRUE(h.store.SetQuality(a, 0.9).ok());
  ASSERT_TRUE(h.store.AddFlag(a, kFlagRepaired).ok());
  ASSERT_TRUE(h.store.SetSession(a, 7).ok());
  ASSERT_TRUE(
      h.store.SetVisibility(a, "alice", Visibility::kPublic).ok());
  ASSERT_TRUE(h.store.Delete(b, "alice").ok());
  Annotation note;
  note.author = "alice";
  note.timestamp = 1500;
  note.text = std::string(1, '\0') + "binary-safe \xF0 annotation\n";
  note.fragment = "temp < 18";
  ASSERT_TRUE(h.store.Annotate(a, note).ok());

  std::string path = TempPath("cqms_v2_mutated.snap");
  ASSERT_TRUE(SaveSnapshotV2(h.store, path).ok());
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  ASSERT_EQ(loaded.size(), 3u);
  for (const QueryRecord& r : h.store.records()) {
    ExpectRecordsEqual(r, *loaded.Get(r.id));
  }
  EXPECT_EQ(loaded.acl().GetVisibility(a), Visibility::kPublic);
  EXPECT_FALSE(loaded.Visible("carol", b));  // deleted stays deleted
  EXPECT_TRUE(loaded.Get(c)->parse_failed());
}

TEST(SnapshotV2Test, LazyAstMaterializesForMaintenance) {
  Harness h;
  QueryId id = h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  std::string path = TempPath("cqms_v2_lazy_ast.snap");
  ASSERT_TRUE(SaveSnapshotV2(h.store, path).ok());
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());

  const QueryRecord* r = loaded.Get(id);
  EXPECT_FALSE(r->parse_failed());
  EXPECT_EQ(r->ast, nullptr);  // restored without parsing
  uint64_t parses_before = sql::ParseCallCount();
  ASSERT_NE(r->Ast(), nullptr);  // first consumer pays one parse
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 1u);
  EXPECT_NE(r->Ast(), nullptr);
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 1u);  // memoized
  EXPECT_FALSE(r->parse_failed());
}

// Simulates a snapshot written by a *different* process, whose interner
// assigned different ids: the stored table slice carries old ids that
// cannot match this process's, so the loader must remap every signature
// vector and rebuild the sketches. Hand-encodes the v2 framing (magic,
// CRC32-framed sections) — doubling as a format-stability check against
// docs/persistence.md.
TEST(SnapshotV2Test, ForeignProcessSnapshotRemapsSymbolsAndRebuildsSketch) {
  const std::string names[3] = {"zz_remap_aaa", "zz_remap_bbb", "zz_remap_ccc"};
  const Symbol old_ids[3] = {7000001, 7000005, 7000044};  // foreign ids

  BinaryWriter interner;
  interner.PutVarint(3);
  for (int i = 0; i < 3; ++i) {
    interner.PutVarint(old_ids[i]);
    interner.PutString(names[i]);
  }

  BinaryWriter acl;
  acl.PutVarint(1);  // one user
  acl.PutString("ruser");
  acl.PutVarint(1);
  acl.PutString("rgroup");
  acl.PutVarint(0);  // no visibility overrides

  BinaryWriter records;
  records.PutVarint(1);
  records.PutU8(0x0A);  // sig valid | sketch valid, not parsed
  records.PutString("zz_remap_aaa zz_remap_bbb zz_remap_ccc");
  records.PutString("ruser");
  records.PutZigzag(1234);  // timestamp
  records.PutZigzag(-1);    // session
  records.PutVarint(0);     // flags
  records.PutDouble(0.5);
  records.PutZigzag(10);  // exec micros
  records.PutVarint(0);   // result rows
  records.PutVarint(0);   // rows scanned
  records.PutU8(0);       // succeeded
  records.PutString("parse error");
  records.PutString("");  // plan
  records.PutVarint(0);   // annotations
  // Signature: empty tables/skeletons/attributes/projections, three
  // delta-encoded text tokens, no output rows.
  records.PutVarint(0);
  records.PutVarint(0);
  records.PutVarint(0);
  records.PutVarint(0);
  records.PutVarint(3);
  records.PutVarint(old_ids[0]);
  records.PutVarint(old_ids[1] - old_ids[0]);
  records.PutVarint(old_ids[2] - old_ids[1]);
  records.PutVarint(0);  // output rows
  for (int i = 0; i < 64; ++i) records.PutFixed64(0xDEADBEEFu + i);

  std::string file = "CQMSNAP2";
  BinaryWriter version;
  version.PutFixed32(2);
  file += version.data();
  auto append_section = [&file](uint8_t id, const std::string& payload) {
    BinaryWriter frame;
    frame.PutU8(id);
    frame.PutFixed64(payload.size());
    file += frame.data();
    file += payload;
    BinaryWriter crc;
    crc.PutFixed32(Crc32(payload));
    file += crc.data();
  };
  append_section(1, interner.data());
  append_section(2, acl.data());
  append_section(3, records.data());
  append_section(0xFF, std::string());

  std::string path = TempPath("cqms_v2_foreign.snap");
  WriteFile(path, file);

  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  ASSERT_EQ(loaded.size(), 1u);
  const QueryRecord* r = loaded.Get(0);

  // Symbols remapped into this process's id space: the keyword index
  // resolves the names, and the signature stays sorted.
  EXPECT_EQ(loaded.QueriesWithKeyword("zz_remap_bbb"),
            (std::vector<QueryId>{0}));
  ASSERT_EQ(r->signature.text_tokens.size(), 3u);
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_LT(r->signature.text_tokens[i - 1], r->signature.text_tokens[i]);
  }
  for (const std::string& name : names) {
    Symbol s = GlobalInterner().Find(name);
    ASSERT_NE(s, kInvalidSymbol);
    EXPECT_TRUE(std::binary_search(r->signature.text_tokens.begin(),
                                   r->signature.text_tokens.end(), s))
        << name;
  }

  // The foreign sketch slots were discarded and rebuilt over the
  // remapped ids — exactly what a fresh ComputeMinHashSketch yields.
  ASSERT_TRUE(r->sketch.valid);
  MinHashSketch expected = ComputeMinHashSketch(r->signature);
  EXPECT_EQ(r->sketch.mins, expected.mins);
  EXPECT_TRUE(loaded.acl().GroupsOf("ruser").count("rgroup") > 0);
}

TEST(SnapshotV2Test, CorruptSnapshotsAreRejected) {
  Harness h;
  h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  h.Log("bob", "SELECT * FROM CityLocations");
  std::string path = TempPath("cqms_v2_corrupt.snap");
  ASSERT_TRUE(SaveSnapshotV2(h.store, path).ok());
  std::string good = ReadFile(path);
  ASSERT_GT(good.size(), 120u);

  {  // Bad magic.
    std::string bad = good;
    bad[3] ^= 0x40;
    WriteFile(path, bad);
    QueryStore s;
    EXPECT_EQ(LoadSnapshot(&s, path).code(), StatusCode::kCorruption);
  }
  {  // Unsupported version.
    std::string bad = good;
    bad[8] = 9;
    WriteFile(path, bad);
    QueryStore s;
    EXPECT_EQ(LoadSnapshot(&s, path).code(), StatusCode::kIoError);
  }
  {  // Flipped payload bytes must fail the section CRC.
    for (size_t offset : {good.size() / 3, good.size() / 2}) {
      std::string bad = good;
      bad[offset] ^= 0x01;
      WriteFile(path, bad);
      QueryStore s;
      EXPECT_FALSE(LoadSnapshot(&s, path).ok()) << "offset " << offset;
    }
  }
  {  // Truncated mid-section.
    std::string bad = good.substr(0, good.size() - 30);
    WriteFile(path, bad);
    QueryStore s;
    EXPECT_EQ(LoadSnapshot(&s, path).code(), StatusCode::kCorruption);
  }
  // And the pristine bytes still load.
  WriteFile(path, good);
  QueryStore s;
  EXPECT_TRUE(LoadSnapshot(&s, path).ok());
  EXPECT_EQ(s.size(), 2u);
}

/// Applies a representative mutation of every WAL op through a durable
/// store; returns the ids (append order) for later comparison.
std::vector<QueryId> ApplyCommittedMutations(Harness* h) {
  QueryStore& store = h->store;
  store.AddUser("alice", {"oceans"});
  store.AddUser("bob", {"lakes"});
  QueryId a = h->Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  QueryId b = h->Log("bob", "SELECT * FROM CityLocations");
  QueryId c = h->Log("alice", "SELEKT not sql");  // logged parse failure
  EXPECT_TRUE(store.RewriteQueryText(
                  b, "SELECT city FROM CityLocations WHERE city = 'oslo'")
                  .ok());
  Annotation note;
  note.author = "bob";
  note.timestamp = 42;
  note.text = "favorite city \xFF probe";
  EXPECT_TRUE(store.Annotate(b, note).ok());
  EXPECT_TRUE(store.AddFlag(a, kFlagStatsStale).ok());
  EXPECT_TRUE(store.ClearFlag(a, kFlagStatsStale).ok());
  EXPECT_TRUE(store.AddFlag(a, kFlagRepaired).ok());
  EXPECT_TRUE(store.SetSession(a, 3).ok());
  EXPECT_TRUE(store.SetQuality(a, 0.8).ok());
  EXPECT_TRUE(
      store.SetVisibility(a, "alice", Visibility::kPrivate).ok());
  EXPECT_TRUE(store.Delete(c, "alice").ok());
  return {a, b, c};
}

/// `expect_output_rows` is false only for the v1 text-format migration
/// path: that format predates output-hash persistence, so a store
/// re-profiled from it legitimately carries none.
void ExpectStoresEquivalent(const QueryStore& a, const QueryStore& b,
                            bool expect_output_rows = true) {
  ASSERT_EQ(a.size(), b.size());
  for (const QueryRecord& r : a.records()) {
    const QueryRecord* o = b.Get(r.id);
    EXPECT_EQ(r.text, o->text);
    EXPECT_EQ(r.user, o->user);
    EXPECT_EQ(r.timestamp, o->timestamp);
    EXPECT_EQ(r.session_id, o->session_id);
    EXPECT_EQ(r.flags, o->flags);
    EXPECT_EQ(r.quality, o->quality);
    EXPECT_EQ(r.parse_failed(), o->parse_failed());
    EXPECT_EQ(r.fingerprint, o->fingerprint);
    if (expect_output_rows) {
      // Output-similarity ranking state survives WAL replay too (the
      // hashes ride in kAppend/kRewrite frames even though summaries
      // do not).
      EXPECT_EQ(r.signature.output_rows, o->signature.output_rows);
      EXPECT_EQ(r.signature.output_empty_computed,
                o->signature.output_empty_computed);
    }
    ASSERT_EQ(r.annotations.size(), o->annotations.size());
    for (size_t i = 0; i < r.annotations.size(); ++i) {
      EXPECT_EQ(r.annotations[i].text, o->annotations[i].text);
    }
    EXPECT_EQ(a.acl().GetVisibility(r.id), b.acl().GetVisibility(r.id));
  }
  EXPECT_EQ(a.acl().memberships(), b.acl().memberships());
}

TEST(WalTest, ReplayRecoversEveryCommittedMutationAfterTornWrite) {
  std::string dir = TempPath("cqms_wal_torn");
  RemoveDurableFiles(dir);

  Harness h;
  DurableStore durable(&h.store, dir);
  ASSERT_TRUE(durable.Open().ok());
  std::vector<QueryId> ids = ApplyCommittedMutations(&h);
  uint64_t committed = durable.wal_records();
  ASSERT_GE(committed, 12u);

  // Crash: the process dies mid-append. The WAL's committed prefix is
  // on disk; the final frame is torn (its payload never finished).
  {
    std::ofstream out(dir + "/wal.log",
                      std::ios::binary | std::ios::app);
    BinaryWriter torn;
    torn.PutFixed32(1000);       // claims a 1000-byte payload...
    torn.PutFixed32(0x12345678);  // ...bogus CRC...
    torn.PutU8(1);                // ...one byte of it ever landed
    out.write(torn.data().data(),
              static_cast<std::streamsize>(torn.data().size()));
  }

  // Recover into a fresh store.
  Harness h2;
  DurableStore recovered(&h2.store, dir);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.replay_stats().records_applied, committed);
  EXPECT_GT(recovered.replay_stats().torn_bytes, 0u);
  ExpectStoresEquivalent(h.store, h2.store);

  // The torn tail was truncated away: the log ends on a frame boundary.
  EXPECT_EQ(ReadFile(dir + "/wal.log").size(),
            recovered.replay_stats().bytes_valid);

  // Checkpoint folds the tail into a binary snapshot and resets the
  // WAL; a third recovery comes up from the snapshot alone.
  ASSERT_TRUE(recovered.Checkpoint().ok());
  EXPECT_EQ(recovered.wal_records(), 0u);
  Harness h3;
  DurableStore again(&h3.store, dir);
  ASSERT_TRUE(again.Open().ok());
  EXPECT_EQ(again.replay_stats().records_applied, 0u);
  ExpectStoresEquivalent(h.store, h3.store);
}

TEST(WalTest, MutationsAfterRecoveryKeepLogging) {
  std::string dir = TempPath("cqms_wal_continue");
  RemoveDurableFiles(dir);

  {
    Harness h;
    DurableStore durable(&h.store, dir);
    ASSERT_TRUE(durable.Open().ok());
    h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  }
  Harness h2;
  {
    DurableStore durable(&h2.store, dir);
    ASSERT_TRUE(durable.Open().ok());
    ASSERT_EQ(h2.store.size(), 1u);
    // New mutations append after the replayed prefix.
    h2.Log("bob", "SELECT * FROM CityLocations");
    ASSERT_TRUE(h2.store.SetQuality(0, 0.25).ok());
  }
  Harness h3;
  DurableStore durable(&h3.store, dir);
  ASSERT_TRUE(durable.Open().ok());
  ExpectStoresEquivalent(h2.store, h3.store);
  EXPECT_EQ(h3.store.Get(0)->quality, 0.25);
}

TEST(WalTest, CrashBetweenSnapshotWriteAndWalTruncationIsIdempotent) {
  std::string dir = TempPath("cqms_wal_ckpt_crash");
  RemoveDurableFiles(dir);

  Harness h;
  DurableStore durable(&h.store, dir);
  ASSERT_TRUE(durable.Open().ok());
  ApplyCommittedMutations(&h);

  // Simulate a crash *between* Checkpoint's snapshot write and its WAL
  // truncation: take the checkpoint, then put the pre-checkpoint WAL
  // bytes back as if the truncation never hit the disk.
  std::string old_wal = ReadFile(dir + "/wal.log");
  ASSERT_TRUE(durable.Checkpoint().ok());
  WriteFile(dir + "/wal.log", old_wal);

  // Recovery must not re-apply what the snapshot already contains: the
  // sequence stamps make snapshot + stale-WAL replay idempotent.
  Harness h2;
  DurableStore recovered(&h2.store, dir);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.replay_stats().records_applied, 0u);
  EXPECT_GT(recovered.replay_stats().records_skipped, 0u);
  ExpectStoresEquivalent(h.store, h2.store);

  // New mutations resume with fresh sequence numbers past the stale
  // tail, and a further recovery applies exactly those.
  h2.Log("alice", "SELECT 42");
  Harness h3;
  DurableStore again(&h3.store, dir);
  ASSERT_TRUE(again.Open().ok());
  EXPECT_EQ(again.replay_stats().records_applied, 1u);
  ExpectStoresEquivalent(h2.store, h3.store);
}

TEST(WalTest, TornInitialHeaderRecoversToEmpty) {
  std::string dir = TempPath("cqms_wal_torn_header");
  ::mkdir(dir.c_str(), 0755);
  RemoveDurableFiles(dir);
  // The process died while writing the very first WAL header: only a
  // prefix of the magic ever landed.
  WriteFile(dir + "/wal.log", "CQMSW");

  Harness h;
  DurableStore durable(&h.store, dir);
  ASSERT_TRUE(durable.Open().ok());
  EXPECT_EQ(durable.replay_stats().records_applied, 0u);
  EXPECT_EQ(durable.replay_stats().torn_bytes, 5u);
  // And the log is writable again.
  h.Log("alice", "SELECT 1");
  EXPECT_EQ(durable.wal_records(), 1u);

  // A short file that is NOT a header prefix is foreign: refuse.
  WriteFile(dir + "/wal.log", "NOTAWAL");
  Harness h2;
  DurableStore foreign(&h2.store, dir);
  EXPECT_EQ(foreign.Open().code(), StatusCode::kCorruption);
}

// --- WAL record format -------------------------------------------------------

/// One payload per WAL op (op byte onward), pinned from the per-op
/// encoders that predate EncodeMutation. Logs already on disk hold these
/// bytes, so the encoder must keep producing them and replay must keep
/// reading them.
struct GoldenPayload {
  const char* name;
  const char* hex;
};
const GoldenPayload kGoldenPayloads[] = {
    {"append",
     "01012a53454c4543542074656d702046524f4d20576174657254656d70205748455245"
     "2074656d70203c20313805616c69636580897a0602000000000000e83fa41305280100"
     "0e7363616e20576174657254656d70030723be070000"},
    {"append_unparsed",
     "01000d53454c454b542062726f6b656e03626f628092f4010100000000000000e03f00"
     "0000000b7061727365206572726f7200000001"},
    {"rewrite",
     "02002a53454c4543542074656d702046524f4d20576174657254656d70205748455245"
     "2074656d70203c2032300001"},
    {"annotate", "030003626f629a010a636f6c642073697465730974656d70203c203230"},
    {"flag_set", "040008"},
    {"flag_clear", "050002"},
    {"set_session", "060012"},
    {"set_quality", "0700000000000000d03f"},
    {"delete", "0801"},
    {"add_user", "09056361726f6c02056c616b6573066f6365616e73"},
    {"set_visibility", "0a0002"},
};
constexpr size_t kNumGolden =
    sizeof(kGoldenPayloads) / sizeof(kGoldenPayloads[0]);

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

std::string ToHex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

/// The mutations kGoldenPayloads encodes, in the same order.
std::vector<Mutation> GoldenMutations() {
  std::vector<Mutation> out;
  // `decoded` owns the record, as it does for a mutation read off a log.
  auto with_record = [&out](WalOp op, QueryRecord record) {
    Mutation m(op, record.id);
    m.decoded = std::make_unique<QueryRecord>(std::move(record));
    m.record = m.decoded.get();
    out.push_back(std::move(m));
  };
  QueryRecord a = BuildRecordFromText(
      "SELECT temp FROM WaterTemp WHERE temp < 18", "alice", 1000000);
  a.id = 0;
  a.session_id = 3;
  a.flags = kFlagRepaired;
  a.quality = 0.75;
  a.stats.execution_micros = 1234;
  a.stats.result_rows = 5;
  a.stats.rows_scanned = 40;
  a.stats.plan = "scan WaterTemp";
  a.signature.output_rows = {7, 42, 1000};
  with_record(WalOp::kAppend, std::move(a));

  QueryRecord b = BuildRecordFromText("SELEKT broken", "bob", 2000000);
  b.id = 1;
  b.stats.succeeded = false;
  b.stats.error = "parse error";
  with_record(WalOp::kAppend, std::move(b));

  QueryRecord rewritten = BuildRecordFromText(
      "SELECT temp FROM WaterTemp WHERE temp < 20", "alice", 1000000);
  rewritten.id = 0;
  rewritten.signature.output_rows.clear();
  rewritten.signature.output_empty_computed = true;
  with_record(WalOp::kRewrite, std::move(rewritten));

  Mutation note(WalOp::kAnnotate, 0);
  note.annotation = {"bob", 77, "cold sites", "temp < 20"};
  out.push_back(std::move(note));
  Mutation flag_set(WalOp::kFlagSet, 0);
  flag_set.flag = kFlagStatsStale;
  out.push_back(std::move(flag_set));
  Mutation flag_clear(WalOp::kFlagClear, 0);
  flag_clear.flag = kFlagRepaired;
  out.push_back(std::move(flag_clear));
  Mutation session(WalOp::kSetSession, 0);
  session.session = 9;
  out.push_back(std::move(session));
  Mutation quality(WalOp::kSetQuality, 0);
  quality.quality = 0.25;
  out.push_back(std::move(quality));
  out.emplace_back(WalOp::kDelete, 1);
  Mutation user(WalOp::kAddUser, kInvalidQueryId);
  user.user = "carol";
  user.groups = {"lakes", "oceans"};
  out.push_back(std::move(user));
  Mutation visibility(WalOp::kSetVisibility, 0);
  visibility.visibility = Visibility::kPublic;
  out.push_back(std::move(visibility));
  return out;
}

/// A version-1 WAL file: header, then `payloads` framed by hand
/// (fixed32 length, fixed32 CRC, varint sequence + payload) with
/// sequences 1, 2, ...
std::string WalImage(const std::vector<std::string>& payloads) {
  BinaryWriter w;
  w.PutBytes("CQMSWAL1", 8);
  w.PutFixed32(1);
  uint64_t sequence = 0;
  for (const std::string& payload : payloads) {
    BinaryWriter body;
    body.PutVarint(++sequence);
    body.PutBytes(payload.data(), payload.size());
    w.PutFixed32(static_cast<uint32_t>(body.data().size()));
    w.PutFixed32(Crc32(body.data()));
    w.PutBytes(body.data().data(), body.data().size());
  }
  return w.Take();
}

std::vector<std::string> GoldenBytes() {
  std::vector<std::string> out;
  for (const GoldenPayload& g : kGoldenPayloads) out.push_back(FromHex(g.hex));
  return out;
}

TEST(WalGoldenTest, EncodeMutationReproducesPinnedBytes) {
  std::vector<Mutation> mutations = GoldenMutations();
  ASSERT_EQ(mutations.size(), kNumGolden);
  for (size_t i = 0; i < kNumGolden; ++i) {
    BinaryWriter w;
    EncodeMutation(mutations[i], &w);
    EXPECT_EQ(ToHex(w.data()), kGoldenPayloads[i].hex)
        << kGoldenPayloads[i].name;
  }
}

TEST(WalGoldenTest, PinnedLogReplaysToExpectedState) {
  const std::string path = TempPath("cqms_wal_golden.log");
  WriteFile(path, WalImage(GoldenBytes()));
  QueryStore store;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(path, &store, &stats).ok());
  EXPECT_EQ(stats.records_applied, kNumGolden);
  EXPECT_EQ(stats.torn_bytes, 0u);
  ASSERT_EQ(store.size(), 2u);

  const QueryRecord* a = store.Get(0);
  EXPECT_EQ(a->text, "SELECT temp FROM WaterTemp WHERE temp < 20");
  EXPECT_FALSE(a->parse_failed());
  EXPECT_EQ(a->user, "alice");
  EXPECT_EQ(a->timestamp, 1000000);
  EXPECT_EQ(a->session_id, 9);
  EXPECT_EQ(a->flags, static_cast<uint32_t>(kFlagStatsStale));
  EXPECT_EQ(a->quality, 0.25);
  EXPECT_EQ(a->stats.execution_micros, 1234);
  EXPECT_EQ(a->stats.result_rows, 5u);
  EXPECT_EQ(a->stats.rows_scanned, 40u);
  EXPECT_EQ(a->stats.plan, "scan WaterTemp");
  EXPECT_TRUE(a->signature.output_rows.empty());
  EXPECT_TRUE(a->signature.output_empty_computed);
  ASSERT_EQ(a->annotations.size(), 1u);
  EXPECT_EQ(a->annotations[0].author, "bob");
  EXPECT_EQ(a->annotations[0].timestamp, 77);
  EXPECT_EQ(a->annotations[0].text, "cold sites");
  EXPECT_EQ(a->annotations[0].fragment, "temp < 20");

  const QueryRecord* b = store.Get(1);
  EXPECT_EQ(b->text, "SELEKT broken");
  EXPECT_TRUE(b->parse_failed());
  EXPECT_EQ(b->user, "bob");
  EXPECT_TRUE(b->HasFlag(kFlagDeleted));
  EXPECT_FALSE(b->stats.succeeded);
  EXPECT_EQ(b->stats.error, "parse error");

  EXPECT_EQ(store.acl().GroupsOf("carol"),
            (std::set<std::string>{"lakes", "oceans"}));
  EXPECT_EQ(store.acl().GetVisibility(0), Visibility::kPublic);
  EXPECT_EQ(store.acl().GetVisibility(1), Visibility::kGroup);
}

TEST(WalGoldenTest, TrailingByteIsCorruptionForRecoveryAndReplicas) {
  // An intact frame (valid length and CRC) whose payload runs one byte
  // past its mutation.
  const std::vector<std::string> payloads = GoldenBytes();
  const std::string quality = payloads[7] + '\0';  // set_quality + 1 byte

  // Recovery: ReplayWal refuses the log.
  const std::string path = TempPath("cqms_wal_trailing.log");
  WriteFile(path, WalImage({payloads[0], quality}));
  QueryStore recovered;
  WalReplayStats stats;
  Status replay = ReplayWal(path, &recovered, &stats);
  EXPECT_EQ(replay.code(), StatusCode::kCorruption) << replay.ToString();
  EXPECT_NE(replay.message().find("trailing payload bytes"),
            std::string::npos);

  // Replicas: the follower applies each shipped frame through
  // ApplyWalRecord, which must refuse it the same way — before the
  // mutation touches the store.
  QueryStore replica;
  BinaryReader append(payloads[0]);
  ASSERT_TRUE(ApplyWalRecord(&append, &replica, "replication stream").ok());
  BinaryReader r(quality);
  Status apply = ApplyWalRecord(&r, &replica, "replication stream");
  EXPECT_EQ(apply.code(), StatusCode::kCorruption) << apply.ToString();
  EXPECT_EQ(replica.Get(0)->quality, 0.75);
}

TEST(WalGoldenTest, HostilePayloadsYieldOkOrTypedCorruption) {
  const std::vector<std::string> golden = GoldenBytes();
  // One scratch store takes every attempt; the two golden appends give
  // the id-addressed ops real records to land on.
  QueryStore store;
  for (size_t i = 0; i < 2; ++i) {
    BinaryReader r(golden[i]);
    ASSERT_TRUE(ApplyWalRecord(&r, &store, "seed").ok());
  }
  size_t attempts = 0;
  size_t applied = 0;
  auto attempt = [&](const std::string& payload, const std::string& what) {
    ++attempts;
    BinaryReader r(payload);
    Status s = ApplyWalRecord(&r, &store, "hostile");
    if (s.ok()) ++applied;
    EXPECT_TRUE(s.ok() || s.code() == StatusCode::kCorruption)
        << what << ": " << s.ToString();
  };

  std::mt19937_64 rng(20240611);
  for (size_t g = 0; g < golden.size(); ++g) {
    const std::string& payload = golden[g];
    const std::string name = kGoldenPayloads[g].name;
    for (size_t n = 0; n < payload.size(); ++n) {
      attempt(payload.substr(0, n),
              name + " truncated to " + std::to_string(n));
    }
    for (int flip = 0; flip < 64; ++flip) {
      std::string mutated = payload;
      const uint64_t bits = 1 + rng() % 3;
      for (uint64_t k = 0; k < bits; ++k) {
        const size_t bit = rng() % (mutated.size() * 8);
        mutated[bit / 8] =
            static_cast<char>(mutated[bit / 8] ^ (1 << (bit % 8)));
      }
      attempt(mutated, name + " flip #" + std::to_string(flip));
    }
  }
  for (int i = 0; i < 512; ++i) {
    // A plausible op byte (known and unknown tags alike), then noise.
    std::string payload(1, static_cast<char>(rng() % 12));
    const size_t len = rng() % 48;
    for (size_t k = 0; k < len; ++k) {
      payload.push_back(static_cast<char>(rng()));
    }
    attempt(payload, "random #" + std::to_string(i));
  }
  EXPECT_GT(attempts, 1000u);
  // Some mangled frames still decode and apply: the fuzz reaches the
  // store's mutators, not only the decoder.
  EXPECT_GT(applied, 0u);
}

TEST(MigrationTest, V1SnapshotLoadsAndCheckpointsToV2) {
  std::string dir = TempPath("cqms_migrate");
  ::mkdir(dir.c_str(), 0755);
  RemoveDurableFiles(dir);

  Harness h;
  QueryId a = h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  ASSERT_TRUE(h.store.SetQuality(a, 0.75).ok());
  // A legacy deployment saved the v1 text format at this path.
  DurableStore layout(&h.store, dir);  // path helper only; never opened
  ASSERT_TRUE(SaveSnapshot(h.store, layout.snapshot_path()).ok());
  ASSERT_TRUE(ReadFile(layout.snapshot_path()).rfind("CQMS-SNAPSHOT", 0) == 0);

  // Open dispatches on the header and re-profiles the v1 text...
  Harness h2;
  DurableStore migrated(&h2.store, dir);
  ASSERT_TRUE(migrated.Open().ok());
  ExpectStoresEquivalent(h.store, h2.store, /*expect_output_rows=*/false);

  // ...and the first checkpoint upgrades the file to v2 in place.
  ASSERT_TRUE(migrated.Checkpoint().ok());
  EXPECT_EQ(ReadFile(migrated.snapshot_path()).substr(0, 8), "CQMSNAP2");
  uint64_t parses_before = sql::ParseCallCount();
  Harness h3;
  DurableStore reopened(&h3.store, dir);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 0u);  // binary now
  ExpectStoresEquivalent(h.store, h3.store, /*expect_output_rows=*/false);
}

TEST(DurableFacadeTest, MaintenanceCheckpointsWhenWalCrossesThreshold) {
  std::string dir = TempPath("cqms_facade_dur");
  RemoveDurableFiles(dir);

  SimulatedClock clock{1'000'000};
  CqmsOptions options;
  options.clock = &clock;
  storage::DurabilityOptions durability;
  durability.checkpoint_wal_records = 3;  // checkpoint almost immediately

  {
    Cqms system(options);
    ASSERT_TRUE(
        workload::PopulateLakeDatabase(system.database(), 50).ok());
    ASSERT_TRUE(system.EnableDurability(dir, durability).ok());
    system.RegisterUser("alice", {"oceans"});
    system.Execute("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
    system.Execute("alice", "SELECT * FROM CityLocations");
    auto report = system.RunMaintenance();
    EXPECT_TRUE(report.checkpointed);
    ASSERT_NE(system.durable(), nullptr);
    EXPECT_EQ(system.durable()->wal_records(), 0u);
    EXPECT_EQ(ReadFile(dir + "/snapshot.cqms").substr(0, 8), "CQMSNAP2");
  }

  // Cold restart: snapshot + (empty) WAL bring everything back.
  Cqms restarted(options);
  ASSERT_TRUE(
      workload::PopulateLakeDatabase(restarted.database(), 50).ok());
  ASSERT_TRUE(restarted.EnableDurability(dir, durability).ok());
  EXPECT_EQ(restarted.store()->size(), 2u);
  EXPECT_EQ(restarted.store()->Get(0)->user, "alice");
  EXPECT_TRUE(restarted.store()->acl().HasUser("alice"));
}

}  // namespace
}  // namespace cqms::storage
