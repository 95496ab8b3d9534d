// P4: end-to-end integration-pipeline throughput — attribute
// preprocessing (vote parsing + consolidation, menu classification),
// entity identification (key vs similarity) and tuple merging, as a
// function of source size. Complements P1-P3, which benchmark the
// algebra in isolation.
#include <benchmark/benchmark.h>

#include <string>

#include "perf_bench_main.h"
#include "common/domain.h"
#include "common/rng.h"
#include "core/operations.h"
#include "core/parallel.h"
#include "integration/pipeline.h"
#include "query/engine.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "workload/generator.h"
#include "workload/paper_fixtures.h"
#include "workload/paper_survey.h"

namespace evident {
namespace {

/// Synthetic survey export shaped like the paper's (menu + vote columns),
/// scaled to `rows` restaurants.
RawTable SyntheticSurvey(const std::string& name, size_t rows,
                         uint64_t seed) {
  Rng rng(seed);
  RawTable t;
  t.name = name;
  t.columns = {"rname", "street",      "bldg-no", "phone", "menu",
               "dish_votes", "rating_votes", "sn",      "sp"};
  const char* menu_items[] = {"kungpao", "wonton", "dimsum",  "burger",
                              "lasagna", "biryani", "padthai", "special1"};
  const char* ratings[] = {"ex", "gd", "avg"};
  for (size_t i = 0; i < rows; ++i) {
    std::string menu;
    const size_t n_items = 2 + rng.Below(5);
    for (size_t m = 0; m < n_items; ++m) {
      if (m) menu += "|";
      menu += menu_items[rng.Below(8)];
    }
    std::string dish_votes;
    const size_t n_dishes = 1 + rng.Below(3);
    for (size_t d = 0; d < n_dishes; ++d) {
      if (d) dish_votes += "; ";
      dish_votes += "d" + std::to_string(1 + rng.Below(36)) + ":" +
                    std::to_string(1 + rng.Below(5));
    }
    std::string rating_votes;
    const size_t n_ratings = 1 + rng.Below(3);
    for (size_t r = 0; r < n_ratings; ++r) {
      if (r) rating_votes += "; ";
      rating_votes += std::string(ratings[r]) + ":" +
                      std::to_string(1 + rng.Below(6));
    }
    t.rows.push_back({"rest" + std::to_string(i),
                      "street" + std::to_string(rng.Below(50)),
                      std::to_string(rng.Below(9999)),
                      "555-" + std::to_string(1000 + rng.Below(9000)), menu,
                      dish_votes, rating_votes, "1", "1"});
  }
  return t;
}

void BM_PreprocessOnly(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  RawTable raw = SyntheticSurvey("A", rows, 1);
  auto config = paper::PaperPipelineConfig().value();
  AttributePreprocessor pre(config.global_schema, config.derivations_a,
                            config.membership_a);
  for (auto _ : state) {
    auto relation = pre.Run(raw);
    benchmark::DoNotOptimize(relation);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_PreprocessOnly)->RangeMultiplier(10)->Range(100, 10000)
    ->Unit(benchmark::kMillisecond);

void BM_FullPipelineByKey(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  RawTable raw_a = SyntheticSurvey("A", rows, 1);
  RawTable raw_b = SyntheticSurvey("B", rows, 2);
  // Same rname space → full key overlap; evidence and the definite
  // street/phone columns differ per seed. The menu/vote evidence can
  // totally conflict, so keep such tuples with vacuous values, and keep
  // the left source's definite values, rather than failing mid-benchmark.
  auto config = paper::PaperPipelineConfig().value();
  config.merge_options.on_total_conflict = TotalConflictPolicy::kVacuous;
  config.merge_options.on_definite_conflict =
      DefiniteConflictPolicy::kPreferLeft;
  IntegrationPipeline pipeline(config);
  for (auto _ : state) {
    auto run = pipeline.Run(raw_a, raw_b);
    if (!run.ok()) state.SkipWithError(run.status().ToString().c_str());
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * rows));
}
BENCHMARK(BM_FullPipelineByKey)->RangeMultiplier(10)->Range(100, 10000)
    ->Unit(benchmark::kMillisecond);

void BM_SimilarityIdentification(benchmark::State& state) {
  // Quadratic candidate generation dominates; keep sizes modest.
  const size_t rows = static_cast<size_t>(state.range(0));
  RawTable raw_a = SyntheticSurvey("A", rows, 1);
  RawTable raw_b = SyntheticSurvey("B", rows, 2);
  auto config = paper::PaperPipelineConfig().value();
  AttributePreprocessor pre_a(config.global_schema, config.derivations_a,
                              config.membership_a);
  AttributePreprocessor pre_b(config.global_schema, config.derivations_a,
                              config.membership_a);
  ExtendedRelation a = pre_a.Run(raw_a).value();
  ExtendedRelation b = pre_b.Run(raw_b).value();
  SimilarityMatchOptions options;
  options.compare_attributes = {"rname", "street"};
  options.threshold = 0.8;
  for (auto _ : state) {
    auto matching = MatchBySimilarity(a, b, options);
    benchmark::DoNotOptimize(matching);
  }
  state.SetComplexityN(static_cast<int64_t>(rows));
}
BENCHMARK(BM_SimilarityIdentification)->RangeMultiplier(2)->Range(32, 256)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNSquared);

// The fully-columnar join: every key matches (the worst case for output
// cardinality), the residual binds, and the output's column image is
// spliced straight from the operand images.
void BM_JoinColumnarSplice(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  WorkloadGenerator gen(417);
  GeneratorOptions options;
  options.num_tuples = n;
  options.num_uncertain = 3;
  options.domain_size = 12;
  auto schema = gen.MakeSchema(options).value();
  ExtendedRelation left = gen.MakeRelation("L", schema, options).value();
  ExtendedRelation right = gen.MakeRelation("R", schema, options).value();
  PredicatePtr pred =
      And(Theta(ThetaOperand::Attr("L.key"), ThetaOp::kEq,
                ThetaOperand::Attr("R.key")),
          IsSym("L.unc0", {"v0", "v1", "v2", "v3", "v4", "v5"}));
  (void)left.columns();  // packed once, outside the timed region
  (void)right.columns();
  for (auto _ : state) {
    auto result = Join(left, right, pred);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_JoinColumnarSplice)
    ->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

/// A synthetic EQL catalog: relation `name` with a unique int key
/// (`p`k), a definite attribute (`p`d) spread over 0..63, and two packed
/// uncertain attributes over a 12-value frame — evidence-heavy tuples,
/// so what the planner prunes or prefilters is what dominates the width.
/// With `skew_key` the definite attribute instead carries one hot value
/// (7) on the first half of the rows — packed into the leading morsels —
/// and sparse cold values on the rest: the join-key shape that straggles
/// a static sharding and that morsel stealing rebalances.
ExtendedRelation EqlBenchRelation(const std::string& name,
                                  const std::string& p, size_t rows,
                                  uint64_t seed, bool skew_key = false) {
  Rng rng(seed);
  DomainPtr dom = [&] {
    std::vector<std::string> symbols;
    for (size_t i = 0; i < 12; ++i) symbols.push_back("v" + std::to_string(i));
    return Domain::MakeSymbolic(p + "dom", symbols).value();
  }();
  SchemaPtr schema =
      RelationSchema::Make({AttributeDef::Key(p + "k"),
                            AttributeDef::Definite(p + "d"),
                            AttributeDef::Uncertain(p + "u0", dom),
                            AttributeDef::Uncertain(p + "u1", dom)})
          .value();
  ExtendedRelation rel(name, schema);
  for (size_t i = 0; i < rows; ++i) {
    ExtendedTuple t;
    MassFunction m0(12), m1(12);
    ValueSet a(12), b(12), c(12);
    a.Set(rng.Below(12));
    b.Set(rng.Below(12));
    b.Set(rng.Below(12));
    c.Set(rng.Below(12));
    (void)m0.Add(a, 0.6);
    (void)m0.Add(b, 0.4);
    (void)m1.Add(c, 1.0);
    const int64_t d = skew_key
                          ? (i < rows / 2 ? 7 : 100 + static_cast<int64_t>(i) % 97)
                          : static_cast<int64_t>(rng.Below(64));
    t.cells = {Value(static_cast<int64_t>(i)), Value(d),
               EvidenceSet::MakeTrusted(dom, std::move(m0)),
               EvidenceSet::MakeTrusted(dom, std::move(m1))};
    t.membership = SupportPair::Certain();
    if (!rel.Insert(std::move(t)).ok()) std::abort();
  }
  return rel;
}

// A selective filter over a join, end-to-end through the EQL engine:
// `ld = 7` keeps ~1/64 of the left operand. Arg 1 toggles the pushdown
// optimizer — off, the hash join visits every key-matched pair and the
// bound residual discards 63/64 of them after the fact; on, the
// prefilter drops those rows before the join builds or probes anything,
// and the build side follows the post-filter cardinality.
void BM_EqlPushdown(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool optimize = state.range(1) != 0;
  Catalog catalog;
  if (!catalog.RegisterRelation(EqlBenchRelation("L", "l", n, 11)).ok() ||
      !catalog.RegisterRelation(EqlBenchRelation("R", "r", n, 23)).ok()) {
    state.SkipWithError("catalog setup failed");
    return;
  }
  (void)catalog.GetRelation("L").value()->columns();
  (void)catalog.GetRelation("R").value()->columns();
  QueryEngine engine(&catalog);
  engine.set_optimizer_enabled(optimize);
  const std::string stmt =
      "SELECT * FROM L JOIN R WHERE lk = rk AND ld = 7 WITH sn > 0";
  for (auto _ : state) {
    auto result = engine.Execute(stmt);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(optimize ? "optimized" : "unoptimized");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_EqlPushdown)
    ->Args({1024, 0})->Args({1024, 1})
    ->Args({8192, 0})->Args({8192, 1})
    ->Args({32768, 0})->Args({32768, 1})
    ->Unit(benchmark::kMillisecond);

// One EQL statement end to end: fused is the engine; unfused composes
// the engine's parse → plan → optimize steps and executes the plan
// without LowerToFusedPipelines, so every chain node runs as its own
// operator.
Result<ExtendedRelation> ExecuteEql(const Catalog& catalog,
                                    const std::string& stmt, bool fused) {
  if (fused) return QueryEngine(&catalog).Execute(stmt);
  EVIDENT_ASSIGN_OR_RETURN(eql::ParsedQuery query, ParseQuery(stmt));
  EVIDENT_ASSIGN_OR_RETURN(eql::LogicalPlan plan,
                           eql::BuildPlan(query, &catalog, UnionOptions()));
  eql::OptimizePlan(&plan);
  return eql::ExecutePlan(plan);
}

// The fused scan pipeline end-to-end through the EQL engine: a
// prefilter (ld = 7), an evidence select and a pruning projection over
// one scan. Arg 1 picks the plan — 0 unfused, each operator
// materializes its intermediate relation; 1 fused, the whole chain runs
// as one filter pass over the catalog's shared column image and splices
// only the survivors once. Pinned to threads=1 so any gap is pure
// fusion, with no parallelism in play.
void BM_FusedPipeline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool fused = state.range(1) != 0;
  Catalog catalog;
  if (!catalog.RegisterRelation(EqlBenchRelation("L", "l", n, 47)).ok()) {
    state.SkipWithError("catalog setup failed");
    return;
  }
  (void)catalog.GetRelation("L").value()->columns();
  SetParallelMaxThreads(1);
  const std::string stmt =
      "SELECT lk, ld FROM L WHERE ld = 7 AND lu0 IS {v0, v1, v2} WITH sn > 0";
  for (auto _ : state) {
    auto result = ExecuteEql(catalog, stmt, fused);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  SetParallelMaxThreads(0);
  state.SetLabel(fused ? "fused" : "operator-at-a-time");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FusedPipeline)
    ->Args({4096, 0})->Args({4096, 1})
    ->Args({32768, 0})->Args({32768, 1})
    ->Unit(benchmark::kMillisecond);

// The morsel-scheduled join probe over a skewed key: the hot join value
// sits on the first half of the probe rows (the leading morsels), so a
// static sharding leaves one shard holding nearly every matching pair.
// Arg 1 picks the plan — 1 fused, the probe loop visits the filter
// pass's surviving rows of the catalog's column image; 0 unfused, the
// prefilter materializes its survivors first. Runs at threads=7 so morsel
// stealing is in play on multi-core hosts.
void BM_FusedSkewedProbe(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool fused = state.range(1) != 0;
  Catalog catalog;
  ExtendedRelation left = EqlBenchRelation("L", "l", n, 53, /*skew_key=*/true);
  ExtendedRelation right("R", RelationSchema::Make(
                                  {AttributeDef::Key("rk"),
                                   AttributeDef::Definite("rd")})
                                  .value());
  for (int64_t i = 0; i < 24; ++i) {
    ExtendedTuple t;
    // rd covers the hot value once plus cold values without partners.
    t.cells = {Value(i), Value(i == 0 ? int64_t{7} : 1000 + i)};
    t.membership = SupportPair::Certain();
    if (!right.Insert(std::move(t)).ok()) {
      state.SkipWithError("catalog setup failed");
      return;
    }
  }
  if (!catalog.RegisterRelation(std::move(left)).ok() ||
      !catalog.RegisterRelation(std::move(right)).ok()) {
    state.SkipWithError("catalog setup failed");
    return;
  }
  (void)catalog.GetRelation("L").value()->columns();
  (void)catalog.GetRelation("R").value()->columns();
  SetParallelMaxThreads(7);
  const std::string stmt =
      "SELECT * FROM L JOIN R WHERE ld = rd AND lu0 IS {v0, v1, v2}";
  for (auto _ : state) {
    auto result = ExecuteEql(catalog, stmt, fused);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  SetParallelMaxThreads(0);
  state.SetLabel(fused ? "fused-probe" : "materialized-prefilter");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FusedSkewedProbe)
    ->Args({8192, 0})->Args({8192, 1})
    ->Args({32768, 0})->Args({32768, 1})
    ->Unit(benchmark::kMillisecond);

// Projection dropping both packed evidence columns: the whole-column
// splice with the encoded-key uniqueness check.
void BM_ProjectColumnar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ExtendedRelation rel = EqlBenchRelation("P", "p", n, 31);
  (void)rel.columns();  // packed once, outside the timed region
  const std::vector<std::string> attrs = {"pk", "pd"};
  for (auto _ : state) {
    auto result = Project(rel, attrs);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ProjectColumnar)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace evident

EVIDENT_PERF_BENCH_MAIN(
    "bench_perf_pipeline",
    "(BM_PreprocessOnly/100|BM_FullPipelineByKey/100|"
    "BM_SimilarityIdentification/32|BM_JoinColumnarSplice/1024|"
    "BM_EqlPushdown/1024/[01]|BM_FusedPipeline/4096/[01]|"
    "BM_FusedSkewedProbe/8192/[01]|BM_ProjectColumnar/4096)$")
