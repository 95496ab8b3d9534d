// LazyOnce<T> and the `const`-is-shareable contract it gives relations:
// the cell's once/retry/copy semantics, and relations (fresh operator
// output, a mapped image, a row-mode catalog relation under concurrent
// queries) whose lazy state is first built by several threads at once.
// tools/run_sanitizers.sh runs this suite under TSan with repeats.
#include "core/lazy_once.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/column_store.h"
#include "core/operations.h"
#include "core/parallel.h"
#include "query/engine.h"
#include "storage/catalog.h"
#include "storage/erel_format.h"

namespace evident {
namespace {

constexpr int kThreads = 8;

/// Runs `body(t)` on kThreads threads released together, so their first
/// touches of shared state overlap.
void RunTogether(const std::function<void(int)>& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
}

// --- The cell ---------------------------------------------------------------

TEST(LazyOnceTest, ConcurrentGetsBuildOnceAndShareOneValue) {
  LazyOnce<std::vector<int>> cell;
  std::atomic<int> builds{0};
  std::vector<const std::vector<int>*> seen(kThreads, nullptr);
  RunTogether([&](int t) {
    seen[t] = &cell.Get([&] {
      builds.fetch_add(1);
      // Hold the build open so the other threads arrive mid-build.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return std::vector<int>{1, 2, 3};
    });
  });
  EXPECT_EQ(builds.load(), 1);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(*seen[0], (std::vector<int>{1, 2, 3}));
}

TEST(LazyOnceTest, ThrowingBuildLeavesTheCellEmptyAndRetries) {
  LazyOnce<std::string> cell;
  EXPECT_THROW(cell.Get([]() -> std::string {
                 throw std::runtime_error("build failed");
               }),
               std::runtime_error);
  EXPECT_FALSE(cell.built());
  EXPECT_EQ(cell.Get([] { return std::string("second try"); }), "second try");
  EXPECT_TRUE(cell.built());
  // Built: later builds are never run.
  EXPECT_EQ(cell.Get([]() -> std::string {
              throw std::runtime_error("must not run");
            }),
            "second try");
}

TEST(LazyOnceTest, CopiesCarryBuiltValuesAndBuildUnbuiltOnesAlone) {
  LazyOnce<std::string> built;
  (void)built.Get([] { return std::string("value"); });
  const LazyOnce<std::string> copy = built;
  EXPECT_TRUE(copy.built());
  EXPECT_EQ(copy.Get([]() -> std::string {
              throw std::runtime_error("copy must not rebuild");
            }),
            "value");
  EXPECT_NE(&copy.Get([] { return std::string(); }),
            &built.Get([] { return std::string(); }));

  LazyOnce<std::string> unbuilt;
  const LazyOnce<std::string> unbuilt_copy = unbuilt;
  EXPECT_FALSE(unbuilt_copy.built());
  EXPECT_EQ(unbuilt_copy.Get([] { return std::string("copy"); }), "copy");
  EXPECT_FALSE(unbuilt.built());
  EXPECT_EQ(unbuilt.Get([] { return std::string("source"); }), "source");

  LazyOnce<std::string> moved_to = std::move(built);
  EXPECT_EQ(moved_to.Get([] { return std::string(); }), "value");
  moved_to.Reset();
  EXPECT_FALSE(moved_to.built());
  moved_to.Set("set");
  EXPECT_EQ(moved_to.Get([] { return std::string(); }), "set");
}

// --- Relations shared across threads ----------------------------------------

DomainPtr UDomain() {
  static const DomainPtr dom =
      Domain::MakeSymbolic("lo_dom", {"p", "q", "r", "s"}).value();
  return dom;
}

SchemaPtr KduSchema(const std::string& prefix) {
  return RelationSchema::Make({AttributeDef::Key(prefix + "k"),
                               AttributeDef::Definite(prefix + "d"),
                               AttributeDef::Uncertain(prefix + "u", UDomain())})
      .value();
}

/// Rows with keys [first, first + count): d = k % 10 and u on {k % 4}.
/// `definite_u` makes u a singleton; otherwise u keeps 0.4 on the frame,
/// so a union of the two kinds never conflicts.
ExtendedRelation MakeRows(const std::string& name, const std::string& prefix,
                          int64_t first, int64_t count, bool definite_u) {
  ExtendedRelation rel(name, KduSchema(prefix));
  for (int64_t k = first; k < first + count; ++k) {
    const size_t v = static_cast<size_t>(k % 4);
    MassFunction m =
        definite_u ? MassFunction::Definite(4, v)
                   : MassFunction::FromUnmerged(
                         4, {{ValueSet::Singleton(4, v), 0.6},
                             {ValueSet::Full(4), 0.4}});
    ExtendedTuple t;
    t.cells = {Value(k), Value(k % 10),
               EvidenceSet::MakeTrusted(UDomain(), std::move(m))};
    t.membership = k % 7 == 0 ? SupportPair{0.5, 0.9} : SupportPair::Certain();
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  return rel;
}

ExtendedRelation FreshUnion() {
  ExtendedRelation u = Union(MakeRows("A", "", 0, 600, true),
                             MakeRows("B", "", 300, 600, false))
                           .value();
  u.set_name("U");
  return u;
}

bool SameRow(const ExtendedTuple& a, const ExtendedTuple& b) {
  if (a.membership.sn != b.membership.sn ||
      a.membership.sp != b.membership.sp ||
      a.cells.size() != b.cells.size()) {
    return false;
  }
  for (size_t c = 0; c < a.cells.size(); ++c) {
    if (!CellApproxEquals(a.cells[c], b.cells[c], 0.0)) return false;
  }
  return true;
}

bool SameRows(const ExtendedRelation& a, const ExtendedRelation& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameRow(a.row(i), b.row(i))) return false;
  }
  return true;
}

bool SameStatistics(const TableStatistics& a, const TableStatistics& b) {
  if (a.row_count != b.row_count || a.sn_histogram != b.sn_histogram ||
      a.sp_histogram != b.sp_histogram ||
      a.attributes.size() != b.attributes.size()) {
    return false;
  }
  for (size_t i = 0; i < a.attributes.size(); ++i) {
    if (a.attributes[i].distinct != b.attributes[i].distinct ||
        a.attributes[i].exact != b.attributes[i].exact) {
      return false;
    }
  }
  return true;
}

/// Shares `shared` (nothing read yet) across kThreads threads, each
/// cycling through every lazy accessor from a different starting point,
/// and checks every answer against `expected` — an identical relation
/// read on this thread.
void ExpectSharedReadsMatchSerial(const ExtendedRelation& shared,
                                  const ExtendedRelation& expected) {
  const size_t n = expected.size();
  ASSERT_GT(n, 0u);
  const ColumnStore::EncodedKeys& keys = expected.columns().encoded_keys();
  const TableStatistics& stats = expected.columns().statistics();
  std::vector<KeyVector> key_vectors;
  for (size_t i = 0; i < n; ++i) {
    key_vectors.push_back(expected.KeyOf(expected.row(i)));
  }

  std::atomic<int> mismatches{0};
  std::vector<const void*> rows_seen(kThreads), stats_seen(kThreads);
  RunTogether([&](int t) {
    auto check = [&](bool ok) {
      if (!ok) mismatches.fetch_add(1);
    };
    const std::vector<std::function<void()>> ops = {
        [&] {
          const std::vector<ExtendedTuple>& rows = shared.rows();
          rows_seen[t] = rows.data();
          check(rows.size() == n);
          for (size_t i = 0; i < rows.size() && i < n; ++i) {
            check(SameRow(rows[i], expected.row(i)));
          }
        },
        [&] {
          for (size_t i = static_cast<size_t>(t); i < n; i += 37) {
            check(SameRow(shared.row(i), expected.row(i)));
          }
        },
        [&] {
          for (size_t i = 0; i < n; ++i) {
            auto found = shared.FindByKey(key_vectors[i]);
            check(found.ok() && *found == i);
          }
        },
        [&] {
          for (size_t i = 0; i < n; ++i) {
            check(shared.ProbeEncodedKey(keys.key(i)) == i);
          }
          check(shared.ProbeEncodedKey("no such key") ==
                EncodedKeyIndex::kNoRow);
        },
        [&] {
          const ColumnStore::EncodedKeys& got =
              shared.columns().encoded_keys();
          check(got.arena == keys.arena && got.offsets == keys.offsets);
        },
        [&] {
          const TableStatistics& got = shared.columns().statistics();
          stats_seen[t] = &got;
          check(SameStatistics(got, stats));
        },
        [&] { check(shared.ApproxEquals(expected, 0.0)); },
    };
    for (size_t i = 0; i < ops.size(); ++i) ops[(t + i) % ops.size()]();
  });
  EXPECT_EQ(mismatches.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(rows_seen[t], rows_seen[0]) << "thread " << t;
    EXPECT_EQ(stats_seen[t], stats_seen[0]) << "thread " << t;
  }
  EXPECT_TRUE(shared.columnar_mode());
  EXPECT_EQ(shared.rows_materialized(), 1u);
}

TEST(LazyRelationTest, FreshUnionResultIsSafeToShare) {
  const ExtendedRelation shared = FreshUnion();
  const ExtendedRelation expected = FreshUnion();
  ASSERT_TRUE(shared.columnar_mode());
  ASSERT_EQ(shared.rows_materialized(), 0u);
  ExpectSharedReadsMatchSerial(shared, expected);
}

TEST(LazyRelationTest, MappedLoadedRelationIsSafeToShare) {
  const std::string path = "/tmp/evident_lazy_once_mapped.erel";
  {
    Catalog catalog;
    ASSERT_TRUE(catalog.RegisterRelation(FreshUnion()).ok());
    PartitionSpec spec;
    spec.scheme = PartitionSpec::Scheme::kKeyRange;
    spec.partitions = 4;
    ASSERT_TRUE(SaveErelFile(catalog, path, spec).ok());
  }
  LoadOptions options;
  options.map = LoadOptions::Map::kAlways;
  auto shared_catalog = LoadErelFile(path, options, nullptr);
  auto expected_catalog = LoadErelFile(path, options, nullptr);
  ASSERT_TRUE(shared_catalog.ok()) << shared_catalog.status();
  ASSERT_TRUE(expected_catalog.ok()) << expected_catalog.status();
  const ExtendedRelation& shared =
      *shared_catalog->GetRelation("U").value();
  const ExtendedRelation& expected =
      *expected_catalog->GetRelation("U").value();
  ASSERT_EQ(shared.rows_materialized(), 0u);
  ExpectSharedReadsMatchSerial(shared, expected);
  std::remove(path.c_str());
}

/// Restores the thread-count toggle the catalog test sets.
class ThreadGuard {
 public:
  ~ThreadGuard() { SetParallelMaxThreads(0); }
};

Catalog RowModeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog.RegisterRelation(MakeRows("A", "", 0, 600, true)).ok());
  EXPECT_TRUE(
      catalog.RegisterRelation(MakeRows("B", "", 300, 600, false)).ok());
  EXPECT_TRUE(
      catalog.RegisterRelation(MakeRows("C", "c", 250, 200, false)).ok());
  return catalog;
}

TEST(LazyRelationTest, FirstQueriesOverARowModeCatalogBuildItsCachesOnce) {
  // Registration builds nothing, so the first concurrent queries build
  // each relation's column image, encoded-key arena and statistics
  // under contention.
  ThreadGuard guard;
  SetParallelMaxThreads(3);
  const std::vector<std::string> statements = {
      "SELECT * FROM A UNION B WHERE d < 5",
      "SELECT * FROM A WHERE d = 3 AND u IS {p, q}",
      "SELECT * FROM A JOIN C WHERE k = ck AND cd < 4",
      "SELECT * FROM B JOIN C WHERE k = ck",
  };
  std::vector<ExtendedRelation> expected;
  {
    const Catalog serial = RowModeCatalog();
    QueryEngine engine(&serial);
    for (const std::string& stmt : statements) {
      auto result = engine.Execute(stmt);
      ASSERT_TRUE(result.ok()) << stmt << ": " << result.status();
      ASSERT_GT(result->size(), 0u) << stmt;
      expected.push_back(std::move(result).value());
    }
  }

  const Catalog catalog = RowModeCatalog();
  std::atomic<int> mismatches{0};
  RunTogether([&](int t) {
    QueryEngine engine(&catalog);
    for (size_t i = 0; i < statements.size(); ++i) {
      const size_t s = (static_cast<size_t>(t) + i) % statements.size();
      auto result = engine.Execute(statements[s]);
      if (!result.ok() || !SameRows(*result, expected[s])) {
        mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  for (const char* name : {"A", "B", "C"}) {
    const ExtendedRelation* rel = catalog.GetRelation(name).value();
    EXPECT_FALSE(rel->columnar_mode()) << name;
    EXPECT_EQ(rel->rows_materialized(), 0u) << name;
  }
}

}  // namespace
}  // namespace evident
