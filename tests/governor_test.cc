// Resource-governed execution: deadlines, cooperative cancellation,
// memory budgets and row caps threaded through the engine — and the
// robustness contract around them. A tripped limit must surface as one
// deterministic ExecError whose message is identical across
// {SIMD, scalar} x thread counts, and the engine, worker pool and shared
// catalog images must stay fully usable: the next query on the same
// engine returns exactly what a fresh engine returns. Every executed
// plan node charges its own output once, children left before right,
// and governance never changes which partitions a scan prunes.
#include "core/query_context.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/domain.h"
#include "core/column_store.h"
#include "core/operations.h"
#include "core/parallel.h"
#include "core/scan_stats.h"
#include "ds/combination.h"
#include "query/engine.h"
#include "reference/reference.h"
#include "storage/catalog.h"
#include "storage/erel_format.h"

namespace evident {
namespace {

using std::chrono::milliseconds;

EvidenceSet Singleton(const DomainPtr& domain, size_t index) {
  return EvidenceSet::MakeTrusted(
      domain, MassFunction::Definite(domain->size(), index));
}

/// L: 96 rows (key lk, definite ld in 0..7, packed uncertain lu);
/// R: 48 rows (key rk = 2*i, definite rd) — the L-R equi join matches
/// half of L. Small enough that every mode combination runs in
/// microseconds, big enough that a join + select + project chain makes
/// several distinct governed charges.
void RegisterPair(Catalog* catalog) {
  DomainPtr dom =
      Domain::MakeSymbolic("gov_dom", {"a0", "a1", "a2", "a3", "a4", "a5"})
          .value();
  SchemaPtr lschema =
      RelationSchema::Make({AttributeDef::Key("lk"),
                            AttributeDef::Definite("ld"),
                            AttributeDef::Uncertain("lu", dom)})
          .value();
  ExtendedRelation l("L", lschema);
  for (int64_t i = 0; i < 96; ++i) {
    ExtendedTuple t;
    t.cells = {Value(i), Value(i % 8),
               Singleton(dom, static_cast<size_t>(i % 6))};
    t.membership =
        i % 5 == 0 ? SupportPair{0.5, 0.8} : SupportPair::Certain();
    ASSERT_TRUE(l.Insert(std::move(t)).ok());
  }
  SchemaPtr rschema = RelationSchema::Make({AttributeDef::Key("rk"),
                                            AttributeDef::Definite("rd")})
                          .value();
  ExtendedRelation r("R", rschema);
  for (int64_t i = 0; i < 48; ++i) {
    ExtendedTuple t;
    t.cells = {Value(2 * i), Value(i % 16)};
    t.membership = SupportPair::Certain();
    ASSERT_TRUE(r.Insert(std::move(t)).ok());
  }
  ASSERT_TRUE(catalog->RegisterRelation(std::move(l)).ok());
  ASSERT_TRUE(catalog->RegisterRelation(std::move(r)).ok());
}

/// The hostile star of bench_perf_multiway: fact F with foreign keys
/// into D1 and D2, FROM-ordered so the naive (optimizer-off) enumeration
/// crosses the two dimensions before any equi edge applies — the shape a
/// deadline must be able to cut short from inside the enumeration loops.
void RegisterStar(Catalog* catalog, size_t n) {
  const int64_t dim = static_cast<int64_t>(n / 4);
  DomainPtr domain =
      Domain::MakeSymbolic("mw_dom", {"v0", "v1", "v2", "v3"}).value();
  SchemaPtr d1_schema = RelationSchema::Make({AttributeDef::Key("d1k"),
                                              AttributeDef::Definite("w1")})
                            .value();
  ExtendedRelation d1("D1", d1_schema);
  for (int64_t i = 0; i < dim; ++i) {
    ExtendedTuple t;
    t.cells = {Value(i), Value(i % 16)};
    t.membership = SupportPair::Certain();
    ASSERT_TRUE(d1.InsertTrusted(std::move(t)).ok());
  }
  SchemaPtr d2_schema = RelationSchema::Make({AttributeDef::Key("d2k"),
                                              AttributeDef::Definite("sel")})
                            .value();
  ExtendedRelation d2("D2", d2_schema);
  for (int64_t i = 0; i < dim; ++i) {
    ExtendedTuple t;
    t.cells = {Value(i), Value(i % 8)};
    t.membership = SupportPair::Certain();
    ASSERT_TRUE(d2.InsertTrusted(std::move(t)).ok());
  }
  SchemaPtr fact_schema =
      RelationSchema::Make({AttributeDef::Key("fk"),
                            AttributeDef::Definite("d1key"),
                            AttributeDef::Definite("d2key"),
                            AttributeDef::Uncertain("fu", domain)})
          .value();
  ExtendedRelation fact("F", fact_schema);
  for (int64_t i = 0; i < static_cast<int64_t>(n); ++i) {
    ExtendedTuple t;
    t.cells = {Value(i), Value(i % dim), Value((i * 7 + 3) % dim),
               Singleton(domain, static_cast<size_t>(i) % 4)};
    t.membership = SupportPair::Certain();
    ASSERT_TRUE(fact.InsertTrusted(std::move(t)).ok());
  }
  ASSERT_TRUE(catalog->RegisterRelation(std::move(d1)).ok());
  ASSERT_TRUE(catalog->RegisterRelation(std::move(d2)).ok());
  ASSERT_TRUE(catalog->RegisterRelation(std::move(fact)).ok());
}

constexpr char kJoinQuery[] =
    "SELECT lk, ld, rd FROM L, R WHERE lk = rk AND ld < 6 WITH sn > 0";
constexpr char kStarQuery[] =
    "SELECT * FROM D1, D2, F WHERE d1key = d1k AND d2key = d2k AND sel = 7";

/// Restores the global execution-mode toggles a test permutes.
class ModeGuard {
 public:
  ~ModeGuard() {
    SetBatchSimdEnabled(true);
    SetParallelMaxThreads(0);
  }
};

struct Mode {
  bool simd;
  size_t threads;
};

std::vector<Mode> AllModes() {
  std::vector<Mode> modes;
  for (bool simd : {false, true}) {
    for (size_t threads : {size_t{1}, size_t{7}}) {
      modes.push_back({simd, threads});
    }
  }
  return modes;
}

/// Runs `query` governed by `ctx` under one mode combination.
Result<ExtendedRelation> RunGoverned(const Catalog& catalog,
                                     QueryContext* ctx,
                                     const std::string& query,
                                     const Mode& mode) {
  SetBatchSimdEnabled(mode.simd);
  SetParallelMaxThreads(mode.threads);
  QueryEngine engine(&catalog);
  engine.set_query_context(ctx);
  return engine.Execute(query);
}

TEST(GovernorTest, UnconstrainedContextLeavesResultsUnchanged) {
  ModeGuard guard;
  Catalog catalog;
  RegisterPair(&catalog);
  const auto expected = reference::ExecuteQuery(catalog, kJoinQuery);
  ASSERT_TRUE(expected.ok()) << expected.status();

  QueryContext ctx;  // no limits set: governed but unconstrained
  std::vector<Result<ExtendedRelation>> runs;
  for (const Mode& mode : AllModes()) {
    runs.push_back(RunGoverned(catalog, &ctx, kJoinQuery, mode));
    ASSERT_TRUE(runs.back().ok()) << runs.back().status();
    EXPECT_GT(ctx.rows_charged(), 0u);
    EXPECT_GT(ctx.bytes_charged(), 0u);
  }
  // Kernel and thread count never change the plan, so every mode agrees
  // row for row.
  for (size_t m = 1; m < runs.size(); ++m) {
    EXPECT_EQ(reference::DiffInOrder(runs[0], runs[m]), "") << "mode " << m;
  }
  EXPECT_EQ(reference::DiffByKey(runs[0], expected), "");
}

TEST(GovernorTest, RowCapMessageIdenticalAcrossAllModes) {
  ModeGuard guard;
  Catalog catalog;
  RegisterPair(&catalog);
  QueryContext ctx;
  ctx.set_row_cap(10);
  std::vector<std::string> messages;
  for (const Mode& mode : AllModes()) {
    auto got = RunGoverned(catalog, &ctx, kJoinQuery, mode);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kExecError);
    messages.push_back(got.status().message());
  }
  for (const std::string& m : messages) {
    EXPECT_EQ(m, "row cap exceeded: query materialized more than 10 rows");
  }
}

TEST(GovernorTest, MemoryBudgetMessageIdenticalAcrossAllModes) {
  ModeGuard guard;
  Catalog catalog;
  RegisterPair(&catalog);
  QueryContext ctx;
  ctx.set_memory_budget(512);  // a few rows of any schema involved
  std::vector<std::string> messages;
  for (const Mode& mode : AllModes()) {
    auto got = RunGoverned(catalog, &ctx, kJoinQuery, mode);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kExecError);
    messages.push_back(got.status().message());
  }
  for (size_t i = 1; i < messages.size(); ++i) {
    EXPECT_EQ(messages[i], messages[0]);
  }
  EXPECT_EQ(messages[0].find("memory budget exceeded: requested "), 0u)
      << messages[0];
}

TEST(GovernorTest, BudgetSufficientInOneModeSufficesInAll) {
  ModeGuard guard;
  Catalog catalog;
  RegisterPair(&catalog);
  // Measure the exact charge total in one mode...
  QueryContext probe;
  ASSERT_TRUE(
      RunGoverned(catalog, &probe, kJoinQuery, {false, 1}).ok());
  const uint64_t bytes = probe.bytes_charged();
  const uint64_t rows = probe.rows_charged();
  ASSERT_GT(bytes, 0u);
  // ... and that exact total must be enough in every other mode: the
  // logical-charge model bills identical totals regardless of threads or
  // kernel.
  QueryContext ctx;
  ctx.set_memory_budget(bytes);
  ctx.set_row_cap(rows);
  for (const Mode& mode : AllModes()) {
    auto got = RunGoverned(catalog, &ctx, kJoinQuery, mode);
    EXPECT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(ctx.bytes_charged(), bytes);
    EXPECT_EQ(ctx.rows_charged(), rows);
  }
}

/// RegisterPair plus E, an empty relation to join L against.
void RegisterPairAndEmpty(Catalog* catalog) {
  RegisterPair(catalog);
  SchemaPtr schema = RelationSchema::Make({AttributeDef::Key("ek"),
                                           AttributeDef::Definite("ed")})
                         .value();
  ASSERT_TRUE(catalog->RegisterRelation(ExtendedRelation("E", schema)).ok());
}

TEST(GovernorTest, JoinChargesLeftOperandBeforeRight) {
  ModeGuard guard;
  Catalog catalog;
  RegisterPair(&catalog);
  // Both single-side conjuncts become prefilters over their scans; the
  // smaller right side is the build, the left prefilter the fused probe.
  // Left survivors: 72 rows x 104 bytes = 7488; right: 24 x 48 = 1152.
  // Children charge left before right, so the 8000-byte budget trips on
  // the right operand's charge.
  const std::string query =
      "SELECT * FROM L JOIN R WHERE lk = rk AND ld < 6 AND rd < 8";
  QueryContext ctx;
  ctx.set_memory_budget(8000);
  for (const Mode& mode : AllModes()) {
    auto got = RunGoverned(catalog, &ctx, query, mode);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kExecError);
    EXPECT_NE(got.status().message().find("requested 1152 bytes"),
              std::string::npos)
        << got.status();
  }
}

TEST(GovernorTest, FusedProbeChargesEvenWhenTheBuildSideIsEmpty) {
  ModeGuard guard;
  Catalog catalog;
  RegisterPairAndEmpty(&catalog);
  // The empty E is the build side; the join itself has nothing to do,
  // but the prefiltered probe child is still an executed node and
  // charges its 72 surviving rows (7488 bytes) first.
  const std::string query = "SELECT * FROM L JOIN E WHERE lk = ek AND ld < 6";
  QueryContext ctx;
  ctx.set_memory_budget(5000);
  for (const Mode& mode : AllModes()) {
    auto got = RunGoverned(catalog, &ctx, query, mode);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kExecError);
    EXPECT_NE(got.status().message().find("requested 7488 bytes"),
              std::string::npos)
        << got.status();
  }
}

TEST(GovernorTest, CancelBeforeExecutionFailsCleanlyAndEngineRecovers) {
  ModeGuard guard;
  Catalog catalog;
  RegisterPair(&catalog);
  QueryEngine engine(&catalog);
  QueryContext ctx;
  engine.set_query_context(&ctx);

  ctx.RequestCancel();
  // BeginQuery (inside Execute) clears a *stale* cancel flag, so a
  // cancel requested before the query starts applies to nothing. Cancel
  // only acts on the in-flight query — request it mid-run instead.
  auto pre = engine.Execute(kJoinQuery);
  ASSERT_TRUE(pre.ok()) << pre.status();

  // A cancel raced in through the context mid-query trips the very first
  // poll; the engine then answers the next query as if nothing happened.
  QueryContext canceled;
  canceled.set_deadline(std::chrono::nanoseconds(1));  // trips immediately
  engine.set_query_context(&canceled);
  auto tripped = engine.Execute(kJoinQuery);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kExecError);
  EXPECT_EQ(tripped.status().message().find("query canceled: "), 0u)
      << tripped.status();

  engine.set_query_context(nullptr);
  auto after = engine.Execute(kJoinQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  QueryEngine fresh(&catalog);
  auto expected = fresh.Execute(kJoinQuery);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(after->ApproxEquals(*expected, 1e-12));
}

TEST(GovernorTest, OneMillisecondDeadlineCancelsHostileMultiwayJoin) {
  ModeGuard guard;
  Catalog catalog;
  RegisterStar(&catalog, 8192);
  QueryEngine engine(&catalog);
  engine.set_optimizer_enabled(false);  // naive FROM-order enumeration
  QueryContext ctx;
  ctx.set_deadline(milliseconds(1));
  engine.set_query_context(&ctx);

  // Ungoverned, the naive enumeration takes on the order of 100ms; the
  // 1ms deadline must cut it short from inside the enumeration loops.
  const auto start = std::chrono::steady_clock::now();
  auto governed = engine.Execute(kStarQuery);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(governed.ok());
  EXPECT_EQ(governed.status().code(), StatusCode::kExecError);
  EXPECT_EQ(governed.status().message().find(
                "query canceled: deadline exceeded after "),
            0u)
      << governed.status();
  // Generous bound (sanitizer builds run several times slower): the poll
  // cadence — every morsel, every ~1024 enumeration iterations — keeps
  // the overshoot far under the ~100ms ungoverned runtime.
  EXPECT_LT(elapsed, milliseconds(250)) << "deadline overshoot";

  // The engine must be fully reusable afterwards: detach the governor
  // and the same engine instance reproduces a fresh engine's result.
  engine.set_query_context(nullptr);
  auto after = engine.Execute(kStarQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  QueryEngine fresh(&catalog);
  fresh.set_optimizer_enabled(false);
  auto expected = fresh.Execute(kStarQuery);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(after->ApproxEquals(*expected, 1e-12));
}

TEST(GovernorTest, CrossThreadCancelStormLeavesEngineIntact) {
  ModeGuard guard;
  Catalog catalog;
  RegisterStar(&catalog, 4096);
  SetParallelMaxThreads(7);

  QueryEngine fresh(&catalog);
  fresh.set_optimizer_enabled(false);
  auto expected = fresh.Execute(kStarQuery);
  ASSERT_TRUE(expected.ok());

  QueryEngine engine(&catalog);
  engine.set_optimizer_enabled(false);
  QueryContext ctx;
  engine.set_query_context(&ctx);
  for (int round = 0; round < 6; ++round) {
    // Cancel from another thread at a staggered delay so the request
    // lands in different execution stages round to round (including
    // mid-join and mid-enumeration).
    std::thread canceler([&ctx, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
      ctx.RequestCancel();
    });
    auto got = engine.Execute(kStarQuery);
    canceler.join();
    if (got.ok()) {
      // The query beat the cancel: the result must still be right.
      EXPECT_TRUE(got->ApproxEquals(*expected, 1e-12));
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kExecError);
      EXPECT_EQ(got.status().message(),
                "query canceled: cancellation requested");
    }
  }
  // After the storm the same engine, same worker pool, same catalog
  // images answer ungoverned queries bit-identically to a fresh engine.
  engine.set_query_context(nullptr);
  auto after = engine.Execute(kStarQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->ApproxEquals(*expected, 1e-12));
}

TEST(GovernorTest, CancelStormOverFusedPipelines) {
  ModeGuard guard;
  Catalog catalog;
  RegisterPair(&catalog);
  SetParallelMaxThreads(7);
  const std::string query =
      "SELECT lk, ld FROM L WHERE ld < 6 AND lu IS {a0, a1, a2} WITH sn > 0";

  QueryEngine fresh(&catalog);
  auto expected = fresh.Execute(query);
  ASSERT_TRUE(expected.ok());

  QueryEngine engine(&catalog);
  QueryContext ctx;
  engine.set_query_context(&ctx);
  for (int round = 0; round < 8; ++round) {
    std::thread canceler([&ctx] { ctx.RequestCancel(); });
    auto got = engine.Execute(query);
    canceler.join();
    if (got.ok()) {
      EXPECT_TRUE(got->ApproxEquals(*expected, 1e-12));
    } else {
      EXPECT_EQ(got.status().message(),
                "query canceled: cancellation requested");
    }
  }
  engine.set_query_context(nullptr);
  auto after = engine.Execute(query);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->ApproxEquals(*expected, 1e-12));
}

TEST(GovernorTest, GovernedScanPrunesLikeUngovernedAndExplain) {
  ModeGuard guard;
  Catalog catalog;
  RegisterStar(&catalog, 4800);
  // A 16-way key-range image of F holds 300 keys per partition, so the
  // two-conjunct prefilter on fk keeps exactly partition 4: fk >= 1200
  // refutes partitions 0-3 and fk < 1500 refutes 5-15.
  const std::string path =
      ::testing::TempDir() + "evident_governor_prune_parity.erel";
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 16;
  ASSERT_TRUE(SaveErelFile(catalog, path, spec).ok());
  LoadOptions options;
  options.map = LoadOptions::Map::kAlways;
  auto mapped = LoadErelFile(path, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  const std::string query =
      "SELECT * FROM D1, D2, F WHERE d1key = d1k AND d2key = d2k AND "
      "fk >= 1200 AND fk < 1500";
  QueryEngine engine(&*mapped);
  auto explain = engine.Explain(query);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain->find("partitions=15/16 pruned"), std::string::npos)
      << *explain;

  ResetScanStats();
  auto ungoverned = engine.Execute(query);
  ASSERT_TRUE(ungoverned.ok()) << ungoverned.status();
  const PartitionScanStats ungoverned_stats = CurrentScanStats();
  EXPECT_EQ(ungoverned_stats.partitions_considered, 16u);
  EXPECT_EQ(ungoverned_stats.partitions_pruned, 15u);

  QueryContext ctx;
  engine.set_query_context(&ctx);
  ResetScanStats();
  auto governed = engine.Execute(query);
  ASSERT_TRUE(governed.ok()) << governed.status();
  const PartitionScanStats governed_stats = CurrentScanStats();
  EXPECT_EQ(governed_stats.partitions_considered, 16u);
  EXPECT_EQ(governed_stats.partitions_pruned, 15u);

  EXPECT_EQ(reference::DiffInOrder(ungoverned, governed), "");
  // The unpartitioned in-memory catalog prunes nothing and agrees.
  EXPECT_EQ(reference::DiffInOrder(QueryEngine(&catalog).Execute(query),
                                   governed),
            "");
  EXPECT_EQ(governed->size(), 300u);  // every kept fact row has partners
  std::remove(path.c_str());
}

TEST(GovernorTest, FootprintPerRowFollowsTheDocumentedModel) {
  DomainPtr dom = Domain::MakeSymbolic("d", {"x", "y", "z"}).value();
  SchemaPtr schema =
      RelationSchema::Make({AttributeDef::Key("k"),
                            AttributeDef::Definite("d"),
                            AttributeDef::Uncertain("u", dom)})
          .value();
  // 16 membership + 16 key + 16 definite + (32 + 4*3) uncertain.
  EXPECT_EQ(QueryContext::FootprintPerRow(*schema), 16u + 16 + 16 + 32 + 12);
}

}  // namespace
}  // namespace evident
