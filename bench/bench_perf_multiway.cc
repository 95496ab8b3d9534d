// P5: n-way join ordering — the cost gap between the optimizer's
// statistics-ordered left-deep enumeration and the naive FROM-order
// enumeration on a 3-relation star with one selective dimension
// predicate. The FROM list (D1, D2, F) is deliberately hostile: executed
// in parse order the enumeration must cross the two dimensions before
// the fact's equi edges apply, while the optimizer starts from the
// prefiltered selective dimension and never crosses. A second arm
// prices a cross-operand residual against the same star without it.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "perf_bench_main.h"
#include "common/domain.h"
#include "core/extended_relation.h"
#include "core/schema.h"
#include "query/engine.h"
#include "storage/catalog.h"

namespace evident {
namespace {

/// Fact F: n rows keyed fk with foreign keys into both dimensions and
/// one packed uncertain column; dimensions D1/D2: n/4 rows each, D2
/// carrying the selective definite attribute sel in 0..7.
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
    if (!d1.InsertTrusted(std::move(t)).ok()) std::abort();
  }

  SchemaPtr d2_schema = RelationSchema::Make({AttributeDef::Key("d2k"),
                                              AttributeDef::Definite("sel")})
                            .value();
  ExtendedRelation d2("D2", d2_schema);
  for (int64_t i = 0; i < dim; ++i) {
    ExtendedTuple t;
    t.cells = {Value(i), Value(i % 8)};
    t.membership = SupportPair::Certain();
    if (!d2.InsertTrusted(std::move(t)).ok()) std::abort();
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
               EvidenceSet::MakeTrusted(
                   domain, MassFunction::Definite(
                               domain->size(),
                               static_cast<size_t>(i) % domain->size()))};
    t.membership = SupportPair::Certain();
    if (!fact.InsertTrusted(std::move(t)).ok()) std::abort();
  }

  if (!catalog->RegisterRelation(std::move(d1)).ok() ||
      !catalog->RegisterRelation(std::move(d2)).ok() ||
      !catalog->RegisterRelation(std::move(fact)).ok()) {
    std::abort();
  }
}

/// range(0) = fact rows, range(1) = optimizer on/off. The sel = 7
/// conjunct keeps 1/8 of D2 (and so 1/8 of the fact's matches); both
/// settings produce the identical result set.
void BM_MultiwayJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool optimize = state.range(1) != 0;
  Catalog catalog;
  RegisterStar(&catalog, n);
  QueryEngine engine(&catalog);
  engine.set_optimizer_enabled(optimize);
  const std::string query =
      "SELECT * FROM D1, D2, F "
      "WHERE d1key = d1k AND d2key = d2k AND sel = 7";
  for (auto _ : state) {
    auto result = engine.Execute(query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(optimize ? "ordered" : "naive FROM order");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MultiwayJoin)
    ->Args({2048, 0})
    ->Args({2048, 1})
    ->Args({8192, 0})
    ->Args({8192, 1})
    ->Unit(benchmark::kMillisecond);

/// The optimizer-ordered star without the selective conjunct,
/// range(1) = 0, against the same star plus the cross-operand residual
/// w1 < sel, range(1) = 1, which keeps about a quarter of the fact's
/// matches: the executor drops a combination once both dimensions are
/// placed, so the residual arm should cost in proportion to its output.
void BM_MultiwayResidual(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool residual = state.range(1) != 0;
  Catalog catalog;
  RegisterStar(&catalog, n);
  QueryEngine engine(&catalog);
  const std::string query =
      std::string("SELECT * FROM D1, D2, F WHERE d1key = d1k AND d2key = d2k") +
      (residual ? " AND w1 < sel" : "");
  for (auto _ : state) {
    auto result = engine.Execute(query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(residual ? "w1 < sel" : "edges only");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MultiwayResidual)
    ->Args({8192, 0})
    ->Args({8192, 1})
    ->Args({65536, 0})
    ->Args({65536, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace evident

EVIDENT_PERF_BENCH_MAIN("bench_perf_multiway",
                        "BM_Multiway(Join/(2048/0|2048/1)|Residual/8192/1)$")
