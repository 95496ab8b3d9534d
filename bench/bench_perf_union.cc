// P2: extended-union (tuple merging) throughput — scaling in relation
// size, key overlap, and uncertain-column count (the knobs of the
// integration workload), extended intersection by overlap — plus a
// columnar-scan micro-benchmark for the packed evidence layout itself.
#include <benchmark/benchmark.h>

#include "perf_bench_main.h"
#include "core/column_store.h"
#include "core/operations.h"
#include "workload/generator.h"

namespace evident {
namespace {

std::pair<ExtendedRelation, ExtendedRelation> MakePair(size_t tuples,
                                                       double overlap) {
  WorkloadGenerator gen(1234 + tuples + static_cast<size_t>(overlap * 100));
  SourcePairOptions options;
  options.base.num_tuples = tuples;
  options.base.num_uncertain = 2;
  options.base.domain_size = 12;
  options.base.max_focals = 4;
  options.key_overlap = overlap;
  options.conflict_rate = 0.0;
  auto pair = gen.MakeSourcePair(options);
  return std::move(pair).value();
}

void BM_UnionByTuples(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  auto [a, b] = MakePair(tuples, 0.5);
  for (auto _ : state) {
    auto merged = Union(a, b);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples));
}
BENCHMARK(BM_UnionByTuples)->RangeMultiplier(10)->Range(100, 100000)
    ->Unit(benchmark::kMillisecond);

void BM_UnionByOverlap(benchmark::State& state) {
  const double overlap = static_cast<double>(state.range(0)) / 100.0;
  auto [a, b] = MakePair(5000, overlap);
  for (auto _ : state) {
    auto merged = Union(a, b);
    benchmark::DoNotOptimize(merged);
  }
  state.SetLabel("overlap=" + std::to_string(state.range(0)) + "%");
}
BENCHMARK(BM_UnionByOverlap)->Arg(0)->Arg(25)->Arg(50)->Arg(75)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Extended intersection at the same sizes: every left key is probed, but
// only the shared entities are combined and built.
void BM_IntersectByOverlap(benchmark::State& state) {
  const double overlap = static_cast<double>(state.range(0)) / 100.0;
  auto [a, b] = MakePair(5000, overlap);
  for (auto _ : state) {
    auto merged = Intersect(a, b);
    benchmark::DoNotOptimize(merged);
  }
  state.SetLabel("overlap=" + std::to_string(state.range(0)) + "%");
}
BENCHMARK(BM_IntersectByOverlap)->Arg(0)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_UnionRuleAblation(benchmark::State& state) {
  const auto rule = static_cast<CombinationRule>(state.range(0));
  auto [a, b] = MakePair(5000, 1.0);
  UnionOptions options;
  options.rule = rule;
  options.on_total_conflict = TotalConflictPolicy::kVacuous;
  for (auto _ : state) {
    auto merged = Union(a, b, options);
    benchmark::DoNotOptimize(merged);
  }
  state.SetLabel(CombinationRuleToString(rule));
}
BENCHMARK(BM_UnionRuleAblation)
    ->Arg(static_cast<int>(CombinationRule::kDempster))
    ->Arg(static_cast<int>(CombinationRule::kYager))
    ->Arg(static_cast<int>(CombinationRule::kMixing))
    ->Unit(benchmark::kMillisecond);

// Scaling in the number of uncertain columns: each adds one packed
// evidence column to probe/batch-combine/splice per merged pair.
void BM_UnionByAttrs(benchmark::State& state) {
  const size_t uncertain = static_cast<size_t>(state.range(0));
  WorkloadGenerator gen(4321 + uncertain);
  SourcePairOptions options;
  options.base.num_tuples = 10000;
  options.base.num_uncertain = uncertain;
  options.base.domain_size = 12;
  options.base.max_focals = 4;
  options.key_overlap = 0.5;
  options.conflict_rate = 0.0;
  auto pair = gen.MakeSourcePair(options).value();
  for (auto _ : state) {
    auto merged = Union(pair.first, pair.second);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000 *
                          static_cast<int64_t>(uncertain));
  state.SetLabel("uncertain=" + std::to_string(uncertain));
}
BENCHMARK(BM_UnionByAttrs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Union over a >64-value frame: the ValueSets no longer fit one machine
// word, so the evidence columns fall back to boxed storage and the
// batch-combination kernels to the scalar path. The fuzz schema
// generator exercises this shape every run; this tracks its cost next
// to the packed 12-value frames above.
void BM_UnionWideFrame(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  WorkloadGenerator gen(8642 + tuples);
  SourcePairOptions options;
  options.base.num_tuples = tuples;
  options.base.num_uncertain = 2;
  options.base.domain_size = 96;  // > 64: boxed columns, scalar kernels
  options.base.max_focals = 4;
  options.key_overlap = 0.5;
  options.conflict_rate = 0.0;
  auto pair = gen.MakeSourcePair(options).value();
  for (auto _ : state) {
    auto merged = Union(pair.first, pair.second);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples));
  state.SetLabel("domain=96");
}
BENCHMARK(BM_UnionWideFrame)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Raw scan throughput of the packed evidence layout: Bel/Pls of a fixed
// subset over every row of one column — the columnar Select inner loop,
// free of predicate binding and output building. Items are tuples.
void BM_ColumnarScan(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  WorkloadGenerator gen(99 + tuples);
  GeneratorOptions options;
  options.num_tuples = tuples;
  options.num_uncertain = 1;
  options.domain_size = 12;
  options.max_focals = 4;
  auto schema = gen.MakeSchema(options).value();
  ExtendedRelation r = gen.MakeRelation("R", schema, options).value();
  const ColumnStore& store = r.columns();
  size_t attr = 0;
  for (size_t a = 0; a < schema->size(); ++a) {
    if (store.kind(a) == ColumnStore::ColumnKind::kEvidence) attr = a;
  }
  const ColumnStore::EvidenceColumn& col = store.evidence_column(attr);
  const uint64_t subset = 0x7;  // {v0, v1, v2}
  for (auto _ : state) {
    double bel = 0.0, pls = 0.0;
    for (size_t row = 0; row < tuples; ++row) {
      for (uint32_t k = col.offsets[row]; k < col.offsets[row + 1]; ++k) {
        const uint64_t w = col.words[k];
        if ((w & ~subset) == 0) bel += col.masses[k];
        if ((w & subset) != 0) pls += col.masses[k];
      }
    }
    benchmark::DoNotOptimize(bel);
    benchmark::DoNotOptimize(pls);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples));
}
BENCHMARK(BM_ColumnarScan)->RangeMultiplier(10)->Range(1000, 100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace evident

EVIDENT_PERF_BENCH_MAIN(
    "bench_perf_union",
    "(BM_UnionByTuples/100|BM_UnionByOverlap/0|BM_IntersectByOverlap/0|"
    "BM_UnionRuleAblation/0|"
    "BM_UnionByAttrs/1|BM_UnionWideFrame/1000|BM_ColumnarScan/1000)$")
