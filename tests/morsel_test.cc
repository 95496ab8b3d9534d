// Tests for the morsel scheduler (core/parallel): fixed-boundary
// morsels pulled from a shared atomic cursor by a persistent worker
// pool, with boundaries pure in (n, grain) — never the thread count —
// so every consumer that writes morsel- or row-indexed state is
// bit-identical for any SetParallelMaxThreads value. Plus the
// threads-scaling smoke: one fused-pipeline join over a skewed key
// distribution (one hot join value on ~50% of the probe rows, packed
// into the leading morsels) executed at threads 1, 2 and 7, asserting
// bit-identical output.
#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/domain.h"
#include "core/extended_relation.h"
#include "core/operations.h"
#include "core/schema.h"
#include "core/tuple.h"
#include "query/engine.h"
#include "storage/catalog.h"

namespace evident {
namespace {

TEST(MorselCountTest, PureInSizeAndGrainAlone) {
  EXPECT_EQ(ParallelMorselCount(0, 64), 0u);
  EXPECT_EQ(ParallelMorselCount(1, 64), 1u);
  EXPECT_EQ(ParallelMorselCount(64, 64), 1u);
  EXPECT_EQ(ParallelMorselCount(65, 64), 2u);
  EXPECT_EQ(ParallelMorselCount(640, 64), 10u);
  EXPECT_EQ(ParallelMorselCount(10, 0), 10u);  // grain 0 clamps to 1
  // The count must not depend on the thread cap: callers pre-size
  // per-morsel buffers with it before any scheduling decision is made.
  SetParallelMaxThreads(1);
  const size_t serial = ParallelMorselCount(1000, 7);
  SetParallelMaxThreads(7);
  EXPECT_EQ(ParallelMorselCount(1000, 7), serial);
  SetParallelMaxThreads(0);
}

TEST(MorselSchedulerTest, CoversEveryRowExactlyOnceAtAnyThreadCount) {
  const size_t n = 10000, grain = 64;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    SetParallelMaxThreads(threads);
    const size_t morsels = ParallelMorselCount(n, grain);
    // Rows and morsel slots are each claimed by exactly one worker, so
    // plain (non-atomic) disjoint writes are the contract under test.
    std::vector<uint8_t> row_hits(n, 0);
    std::vector<uint8_t> morsel_hits(morsels, 0);
    std::atomic<size_t> bad_bounds{0};
    ParallelForMorsels(n, grain, [&](size_t m, size_t begin, size_t end) {
      if (begin != m * grain || end != std::min(n, begin + grain)) {
        bad_bounds.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      ++morsel_hits[m];
      for (size_t r = begin; r < end; ++r) ++row_hits[r];
    });
    EXPECT_EQ(bad_bounds.load(), 0u) << "threads=" << threads;
    for (size_t m = 0; m < morsels; ++m) {
      ASSERT_EQ(morsel_hits[m], 1) << "threads=" << threads << " morsel " << m;
    }
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(row_hits[r], 1) << "threads=" << threads << " row " << r;
    }
  }
  SetParallelMaxThreads(0);
}

TEST(MorselSchedulerTest, TinyInputsRunInlineOnTheCallingThread) {
  SetParallelMaxThreads(7);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<size_t> off_thread{0};
  std::atomic<size_t> calls{0};
  // n <= grain is a single morsel: skips the queue entirely.
  ParallelForMorsels(100, 256, [&](size_t, size_t, size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() != caller) {
      off_thread.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(off_thread.load(), 0u);
  SetParallelMaxThreads(0);
}

TEST(MorselSchedulerTest, NestedCallsRunInlineInsideAMorselJob) {
  SetParallelMaxThreads(7);
  std::atomic<size_t> nested_off_thread{0};
  std::atomic<size_t> nested_rows{0};
  ParallelForMorsels(2048, 256, [&](size_t, size_t, size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    // A nested parallel-for must not re-enter the pool (deadlock and
    // oversubscription bait): it runs inline on the outer worker.
    ParallelForMorsels(512, 64, [&](size_t, size_t begin, size_t end) {
      nested_rows.fetch_add(end - begin, std::memory_order_relaxed);
      if (std::this_thread::get_id() != outer) {
        nested_off_thread.fetch_add(1, std::memory_order_relaxed);
      }
    });
  });
  EXPECT_EQ(nested_off_thread.load(), 0u);
  EXPECT_EQ(nested_rows.load(), 512u * ParallelMorselCount(2048, 256));
  SetParallelMaxThreads(0);
}

// ---------------------------------------------------------------------------
// Threads-scaling smoke: a fused-pipeline join with a deliberately
// skewed key distribution. The hot join value sits on the first ~50% of
// the probe rows — exactly the shape that straggles a static sharding
// (one shard owns nearly all matching pairs) and that morsel stealing
// rebalances. The output must be bit-identical at every thread count.

EvidenceSet Singleton(const DomainPtr& domain, size_t index) {
  return EvidenceSet::MakeTrusted(
      domain, MassFunction::Definite(domain->size(), index));
}

void ExpectBitIdentical(const ExtendedRelation& a, const ExtendedRelation& b,
                        const std::string& what) {
  ASSERT_TRUE(a.schema()->Equals(*b.schema())) << what;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const ExtendedTuple& x = a.row(i);
    const ExtendedTuple& y = b.row(i);
    ASSERT_EQ(x.membership.sn, y.membership.sn) << what << " row " << i;
    ASSERT_EQ(x.membership.sp, y.membership.sp) << what << " row " << i;
    ASSERT_EQ(x.cells.size(), y.cells.size()) << what << " row " << i;
    for (size_t c = 0; c < x.cells.size(); ++c) {
      ASSERT_TRUE(CellApproxEquals(x.cells[c], y.cells[c], 0.0))
          << what << " row " << i << " cell " << c;
    }
  }
}

TEST(ThreadsScalingSmokeTest, FusedSkewedJoinIsBitIdenticalAcrossThreads) {
  DomainPtr dom =
      Domain::MakeSymbolic("smoke_dom", {"a0", "a1", "a2", "a3"}).value();
  SchemaPtr lschema =
      RelationSchema::Make({AttributeDef::Key("lk"),
                            AttributeDef::Definite("ld"),
                            AttributeDef::Uncertain("lu", dom)})
          .value();
  SchemaPtr rschema =
      RelationSchema::Make({AttributeDef::Key("rk"),
                            AttributeDef::Definite("rd")})
          .value();
  constexpr int64_t kRows = 4000;
  constexpr int64_t kHot = 7;
  ExtendedRelation l("L", lschema);
  for (int64_t i = 0; i < kRows; ++i) {
    ExtendedTuple t;
    // First half: all the hot join value, packed into the leading
    // morsels. Second half: cold values, most without a partner.
    const int64_t ld = i < kRows / 2 ? kHot : 100 + i % 97;
    t.cells = {Value(i), Value(ld),
               Singleton(dom, static_cast<size_t>(i % 4))};
    t.membership = i % 3 == 0 ? SupportPair{0.5, 0.75} : SupportPair::Certain();
    ASSERT_TRUE(l.Insert(std::move(t)).ok());
  }
  ExtendedRelation r("R", rschema);
  for (int64_t i = 0; i < 24; ++i) {
    ExtendedTuple t;
    // rd covers the hot value once plus a few of the cold ones.
    t.cells = {Value(i), Value(i == 0 ? kHot : 100 + i)};
    t.membership = SupportPair::Certain();
    ASSERT_TRUE(r.Insert(std::move(t)).ok());
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(std::move(l)).ok());
  ASSERT_TRUE(catalog.RegisterRelation(std::move(r)).ok());

  // The single-side conjunct is pushed below the join as a prefilter and
  // fused, so the probe loop consumes the fused pipeline directly; the
  // equi-join on the skewed ld drives the morsel-scheduled probe.
  const std::string stmt =
      "SELECT * FROM L JOIN R WHERE ld = rd AND lu IS {a0, a1, a2}";
  QueryEngine engine(&catalog);
  auto plan = engine.Explain(stmt);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("fused pipeline"), std::string::npos) << *plan;

  SetParallelMaxThreads(1);
  auto reference = engine.Execute(stmt);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_GT(reference->size(), 1000u);  // the hot key really is hot
  for (size_t threads : {size_t{2}, size_t{7}}) {
    SetParallelMaxThreads(threads);
    auto got = engine.Execute(stmt);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectBitIdentical(*reference, *got,
                       "threads=" + std::to_string(threads));
  }
  SetParallelMaxThreads(0);
}

}  // namespace
}  // namespace evident
