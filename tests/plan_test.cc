// Plan-shape (EXPLAIN golden) and semantics tests for the logical-plan
// layer and the pushdown optimizer: selection pushed below joins as
// sn-prefilters, projections pruning packed evidence columns out of
// join/product operands, cardinality-based build-side choice — and the
// invariant that every rewrite leaves the executed result set bit-exact.
#include "query/plan.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/domain.h"
#include "core/column_store.h"
#include "core/operations.h"
#include "core/parallel.h"
#include "ds/combination.h"
#include "query/engine.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "reference/reference.h"
#include "storage/catalog.h"

namespace evident {
namespace {

EvidenceSet Singleton(const DomainPtr& domain, size_t index) {
  return EvidenceSet::MakeTrusted(
      domain, MassFunction::Definite(domain->size(), index));
}

/// L: 40 rows (key lk, definite ld in 0..7, packed uncertain lu);
/// R: 12 rows (key rk, packed uncertain ru) with rk = 2*i, so 20 of L's
/// keys have a partner; S: 6 rows (key sk, definite sd = sk) joining L
/// on ld = sd. Disjoint attribute names keep the product schema
/// unqualified, which is what makes operand pruning legal everywhere.
class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lu_dom_ = Domain::MakeSymbolic("lu_dom",
                                   {"a0", "a1", "a2", "a3", "a4", "a5"})
                  .value();
    ru_dom_ = Domain::MakeSymbolic("ru_dom", {"b0", "b1", "b2"}).value();
    SchemaPtr lschema =
        RelationSchema::Make({AttributeDef::Key("lk"),
                              AttributeDef::Definite("ld"),
                              AttributeDef::Uncertain("lu", lu_dom_)})
            .value();
    SchemaPtr rschema =
        RelationSchema::Make({AttributeDef::Key("rk"),
                              AttributeDef::Uncertain("ru", ru_dom_)})
            .value();
    ExtendedRelation l("L", lschema);
    for (int64_t i = 0; i < 40; ++i) {
      ExtendedTuple t;
      t.cells = {Value(i), Value(i % 8),
                 Singleton(lu_dom_, static_cast<size_t>(i % 6))};
      t.membership = i % 5 == 0 ? SupportPair{0.5, 0.8}
                                : SupportPair::Certain();
      ASSERT_TRUE(l.Insert(std::move(t)).ok());
    }
    ExtendedRelation r("R", rschema);
    for (int64_t i = 0; i < 12; ++i) {
      ExtendedTuple t;
      t.cells = {Value(2 * i),
                 Singleton(ru_dom_, static_cast<size_t>(i % 3))};
      t.membership = SupportPair::Certain();
      ASSERT_TRUE(r.Insert(std::move(t)).ok());
    }
    ASSERT_TRUE(catalog_.RegisterRelation(std::move(l)).ok());
    ASSERT_TRUE(catalog_.RegisterRelation(std::move(r)).ok());
    SchemaPtr sschema = RelationSchema::Make({AttributeDef::Key("sk"),
                                              AttributeDef::Definite("sd")})
                            .value();
    ExtendedRelation s("S", sschema);
    for (int64_t i = 0; i < 6; ++i) {
      ExtendedTuple t;
      t.cells = {Value(i), Value(i)};
      t.membership =
          i == 0 ? SupportPair{0.6, 0.9} : SupportPair::Certain();
      ASSERT_TRUE(s.Insert(std::move(t)).ok());
    }
    ASSERT_TRUE(catalog_.RegisterRelation(std::move(s)).ok());
  }

  /// Runs `eql` under {optimizer on, off} x {fused, unfused} x
  /// {SIMD, scalar} x {threads 1, 7}. For each optimizer setting every
  /// run must agree with strict row order (fusion, kernel and threads
  /// never change the plan's row order), and every run must equal the
  /// reference evaluator's result keyed by key, bit-identical (the
  /// optimizer may pick a different hash build side, which only permutes
  /// rows).
  void ExpectAllModesAgree(const std::string& eql) {
    const Result<ExtendedRelation> expected =
        reference::ExecuteQuery(catalog_, eql);
    ASSERT_TRUE(expected.ok()) << eql << ": " << expected.status();
    for (bool optimize : {true, false}) {
      QueryEngine engine(&catalog_);
      engine.set_optimizer_enabled(optimize);
      std::vector<Result<ExtendedRelation>> runs;
      for (bool fuse : {true, false}) {
        for (bool simd : {true, false}) {
          for (size_t threads : {size_t{1}, size_t{7}}) {
            SetBatchSimdEnabled(simd);
            SetParallelMaxThreads(threads);
            runs.push_back(
                fuse ? engine.Execute(eql)
                     : reference::ExecuteUnfused(catalog_, eql, optimize));
          }
        }
      }
      SetBatchSimdEnabled(true);
      SetParallelMaxThreads(0);
      const std::string where =
          eql + " (optimize=" + std::to_string(optimize) + ")";
      for (size_t m = 1; m < runs.size(); ++m) {
        EXPECT_EQ(reference::DiffInOrder(runs[0], runs[m]), "")
            << where << " mode " << m << (m >= 4 ? " (unfused)" : "");
      }
      EXPECT_EQ(reference::DiffByKey(runs[0], expected), "") << where;
    }
  }

  Catalog catalog_;
  DomainPtr lu_dom_, ru_dom_;
};

TEST_F(PlanTest, PushesSelectionBelowJoinAsPrefilter) {
  QueryEngine engine(&catalog_);
  auto plan =
      engine.Explain("SELECT * FROM L JOIN R WHERE lk = rk AND ld = 3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The single-side conjunct is prefiltered below the join (the join
  // keeps it for the membership arithmetic); the shrunken left side
  // (40/distinct(ld) = 5 < 12) flips the build side to the left
  // operand. The
  // prefilter-over-scan chain is lowered to a fused pipeline (rendered
  // above the chain it replaced), which the probe loop consumes
  // directly: the probe side stays the catalog relation and the
  // conjunct is evaluated per probe morsel.
  EXPECT_EQ(*plan,
            "join[(lk = rk) and (ld = 3); Q: true; build=left; ~1 rows]\n"
            "  fused pipeline[1 stage(s), 3 col(s)]\n"
            "    prefilter[ld = 3]\n"
            "      scan[L, 40 rows]\n"
            "  scan[R, 12 rows]");
  ExpectAllModesAgree("SELECT * FROM L JOIN R WHERE lk = rk AND ld = 3");
}

TEST_F(PlanTest, PrunesPackedEvidenceColumnsOutOfJoinOperands) {
  QueryEngine engine(&catalog_);
  auto plan = engine.Explain("SELECT ld FROM L JOIN R WHERE lk = rk");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Neither packed evidence column (lu, ru) is needed by the output or
  // the predicate: both are pruned before the join, so the join splices
  // neither. Without a selective conjunct the build side follows the raw
  // cardinalities (12 < 40 -> right).
  EXPECT_EQ(*plan,
            "project[lk, rk, ld]\n"
            "  join[lk = rk; Q: true; build=right; ~12 rows]\n"
            "    project[lk, ld]\n"
            "      scan[L, 40 rows]\n"
            "    project[rk]\n"
            "      scan[R, 12 rows]");
  ExpectAllModesAgree("SELECT ld FROM L JOIN R WHERE lk = rk");
}

TEST_F(PlanTest, PruningProjectionSitsAboveThePrefilter) {
  QueryEngine engine(&catalog_);
  auto plan =
      engine.Explain("SELECT ld FROM L JOIN R WHERE lk = rk AND ld = 3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Filter first (against the catalog's shared column image), then copy
  // only the survivors' kept columns — and the whole
  // project→prefilter→scan chain runs as one fused pipeline: per
  // morsel, evaluate the conjunct and splice only surviving, projected
  // rows (no intermediate relation per node).
  EXPECT_EQ(*plan,
            "project[lk, rk, ld]\n"
            "  join[(lk = rk) and (ld = 3); Q: true; build=left; ~1 rows]\n"
            "    fused pipeline[1 stage(s), 2 col(s)]\n"
            "      project[lk, ld]\n"
            "        prefilter[ld = 3]\n"
            "          scan[L, 40 rows]\n"
            "    project[rk]\n"
            "      scan[R, 12 rows]");
  ExpectAllModesAgree("SELECT ld FROM L JOIN R WHERE lk = rk AND ld = 3");
}

TEST_F(PlanTest, BuildSideFollowsPostPrefilterEstimates) {
  QueryEngine engine(&catalog_);
  // Same join, no selective conjunct: estimates 40 vs 12 -> build=right.
  auto wide = engine.Explain("SELECT * FROM L JOIN R WHERE lk = rk");
  ASSERT_TRUE(wide.ok());
  EXPECT_NE(wide->find("build=right"), std::string::npos) << *wide;
  // With the ld = 3 prefilter the left estimate drops to 10 -> left.
  auto narrow =
      engine.Explain("SELECT * FROM L JOIN R WHERE lk = rk AND ld = 3");
  ASSERT_TRUE(narrow.ok());
  EXPECT_NE(narrow->find("build=left"), std::string::npos) << *narrow;
}

TEST_F(PlanTest, InterpretedPredicateDisablesJoinRewrites) {
  QueryEngine engine(&catalog_);
  // "a9" is outside lu's frame: the IS conjunct cannot bind, so the
  // whole join keeps the unoptimized shape (no prefilter, build=auto) —
  // per-pair error behaviour must stay identical.
  auto plan = engine.Explain(
      "SELECT * FROM L JOIN R WHERE lk = rk AND lu IS {a9}");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->find("prefilter"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("build=auto"), std::string::npos) << *plan;
}

TEST_F(PlanTest, ProjectSlidesBelowSelect) {
  QueryEngine engine(&catalog_);
  auto plan = engine.Explain("SELECT ld FROM L WHERE ld >= 6");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The packed evidence column lu is pruned before the selection ever
  // splices it, and the full project→select→project→scan chain fuses
  // into a single per-morsel pass over the scan's column image.
  EXPECT_EQ(*plan,
            "fused pipeline[1 stage(s), 2 col(s)]\n"
            "  project[lk, ld]\n"
            "    select[ld >= 6; Q: true]\n"
            "      project[lk, ld]\n"
            "        scan[L, 40 rows]");
  ExpectAllModesAgree("SELECT ld FROM L WHERE ld >= 6");
}

TEST_F(PlanTest, MultiwayJoinGetsCostOrderedEnumeration) {
  QueryEngine engine(&catalog_);
  auto plan = engine.Explain(
      "SELECT * FROM L JOIN R JOIN S WHERE lk = rk AND ld = sd");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Greedy over the equi-edge graph: start at S (6 rows), add L through
  // the ld = sd edge (6·40/8 = 30 beats crossing with R), finish with R
  // through lk = rk (30·12/40 = 9 — also the node estimate, since every
  // edge applies regardless of order: 40·12·6 / (40·8) = 9). Operands
  // render in FROM order; only the enumeration is reordered.
  EXPECT_EQ(*plan,
            "multijoin[(lk = rk) and (ld = sd); Q: true; order=S, L, R; "
            "~9 rows]\n"
            "  scan[L, 40 rows]\n"
            "  scan[R, 12 rows]\n"
            "  scan[S, 6 rows]");
  ExpectAllModesAgree(
      "SELECT * FROM L JOIN R JOIN S WHERE lk = rk AND ld = sd");
}

TEST_F(PlanTest, MultiwayPushdownPrefiltersSingleOperandConjuncts) {
  QueryEngine engine(&catalog_);
  auto plan = engine.Explain(
      "SELECT * FROM L, R, S WHERE lk = rk AND ld = sd AND ld = 3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The single-operand conjunct prefilters (and fuses) L's scan exactly
  // as it would below a binary join; the shrunken L estimate (40/8 = 5)
  // now starts the enumeration.
  EXPECT_EQ(*plan,
            "multijoin[(lk = rk) and (ld = sd) and (ld = 3); Q: true; "
            "order=L, R, S; ~1 rows]\n"
            "  fused pipeline[1 stage(s), 3 col(s)]\n"
            "    prefilter[ld = 3]\n"
            "      scan[L, 40 rows]\n"
            "  scan[R, 12 rows]\n"
            "  scan[S, 6 rows]");
  ExpectAllModesAgree(
      "SELECT * FROM L, R, S WHERE lk = rk AND ld = sd AND ld = 3");
}

TEST_F(PlanTest, MultiwayShapesPreserveResults) {
  // Pure n-way product (threshold-only selection on top).
  ExpectAllModesAgree("SELECT ld FROM L, R, S WITH sn >= 1");
  // Star with an uncertain-attribute conjunct (stays in the multijoin
  // predicate; only the definite equalities become edges).
  ExpectAllModesAgree(
      "SELECT * FROM L JOIN R JOIN S WHERE lk = rk AND ld = sd AND "
      "lu IS {a0, a1}");
  // No edge touching R: the enumeration must cross at some step.
  ExpectAllModesAgree("SELECT sd FROM L JOIN R JOIN S WHERE ld = sd");
  ExpectAllModesAgree(
      "SELECT * FROM L JOIN R JOIN S WHERE lk = rk AND ld = sd "
      "ORDER BY sn DESC LIMIT 7");
}

TEST_F(PlanTest, OptimizerPreservesResultsAcrossShapes) {
  ExpectAllModesAgree(
      "SELECT * FROM L JOIN R WHERE lk = rk AND lu IS {a0, a1} WITH sn > 0");
  ExpectAllModesAgree(
      "SELECT lu FROM L JOIN R WHERE lk = rk AND ld >= 4 AND ru IS {b1}");
  // No equi-conjunct: select-over-product fallback, with both sides
  // prefiltered.
  ExpectAllModesAgree(
      "SELECT * FROM L PRODUCT R WHERE ld >= 6 AND ru IS {b0} WITH sn > 0");
  // Threshold-only product plus pruning.
  ExpectAllModesAgree("SELECT ld FROM L PRODUCT R WITH sn >= 1");
  ExpectAllModesAgree("SELECT ld FROM L WHERE lu IS {a2} ORDER BY sn DESC");
}

TEST_F(PlanTest, PrefilterDropsOnlyZeroSupportRowsAndKeepsMemberships) {
  const ExtendedRelation& l = *catalog_.GetRelation("L").value();
  std::vector<PredicatePtr> conjuncts = {
      Is("ld", {Value(int64_t{3})}),
  };
  auto filtered = FilterPositiveSupport(l, conjuncts);
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  EXPECT_EQ(filtered->name(), "L");  // name preserved for qualification
  EXPECT_EQ(filtered->size(), 5u);   // ld == 3 <=> lk % 8 == 3
  for (size_t i = 0; i < filtered->size(); ++i) {
    const ExtendedTuple& t = filtered->row(i);
    EXPECT_EQ(std::get<Value>(t.cells[1]), Value(int64_t{3}));
    // Membership untouched (no F_TM revision).
    const ExtendedTuple& src = l.row(l.FindByKey(l.KeyOf(t)).value());
    EXPECT_EQ(t.membership.sn, src.membership.sn);
    EXPECT_EQ(t.membership.sp, src.membership.sp);
  }
  EXPECT_EQ(reference::DiffByKey(
                filtered, reference::FilterPositiveSupport(l, conjuncts)),
            "");
}

TEST_F(PlanTest, RenameAdoptsColumnImageWithoutMaterializingRows) {
  const ExtendedRelation& l = *catalog_.GetRelation("L").value();
  ExtendedRelation columnar =
      ExtendedRelation::AdoptColumns(ColumnStore::FromRelation(l));
  auto renamed = RenameAttribute(columnar, "ld", "ld_renamed");
  ASSERT_TRUE(renamed.ok()) << renamed.status();
  EXPECT_TRUE(renamed->columnar_mode());
  EXPECT_EQ(renamed->rows_materialized(), 0u);
  EXPECT_EQ(columnar.rows_materialized(), 0u);
  EXPECT_TRUE(renamed->schema()->Has("ld_renamed"));
  EXPECT_EQ(reference::DiffByKey(
                renamed, reference::Rename(l, "ld", "ld_renamed")),
            "");
}

TEST_F(PlanTest, RenameAndMergeNodesExecuteProgrammatically) {
  auto scan = std::make_unique<eql::PlanNode>();
  scan->op = eql::PlanNode::Op::kScan;
  scan->relation = "L";
  scan->rel = catalog_.GetRelation("L").value();
  scan->schema = scan->rel->schema();
  auto rename = std::make_unique<eql::PlanNode>();
  rename->op = eql::PlanNode::Op::kRename;
  rename->rename_from = "lu";
  rename->rename_to = "lu2";
  rename->left = std::move(scan);
  eql::LogicalPlan plan;
  plan.root = std::move(rename);
  auto result = eql::ExecutePlan(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->schema()->Has("lu2"));
  EXPECT_EQ(result->size(), 40u);
  EXPECT_NE(eql::RenderPlan(plan).find("rename[lu -> lu2]"),
            std::string::npos);
}

TEST_F(PlanTest, ExplainAndExecutionAgreeOnIntersect) {
  QueryEngine engine(&catalog_);
  // L INTERSECT L is the self-merge: every entity is shared.
  ExtendedRelation l2 = *catalog_.GetRelation("L").value();
  l2.set_name("L2");
  ASSERT_TRUE(catalog_.RegisterRelation(std::move(l2)).ok());
  auto plan = engine.Explain("SELECT * FROM L INTERSECT L2");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(*plan,
            "intersect\n"
            "  scan[L, 40 rows]\n"
            "  scan[L2, 40 rows]");
  ExpectAllModesAgree("SELECT * FROM L INTERSECT L2 WITH sn > 0.4");
}

}  // namespace
}  // namespace evident
