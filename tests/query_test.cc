#include "query/engine.h"

#include <gtest/gtest.h>

#include "core/operations.h"
#include "query/parser.h"
#include "workload/paper_fixtures.h"

namespace evident {
namespace {

using paper::kPaperEps;

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.RegisterRelation(paper::TableRA().value()).ok());
    ASSERT_TRUE(catalog_.RegisterRelation(paper::TableRB().value()).ok());
  }

  Catalog catalog_;
};

TEST_F(QueryEngineTest, SelectStarScan) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute("SELECT * FROM RA");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ApproxEquals(paper::TableRA().value()));
}

TEST_F(QueryEngineTest, Table2AsQuery) {
  QueryEngine engine(&catalog_);
  auto result =
      engine.Execute("SELECT * FROM RA WHERE speciality IS {si} WITH sn > 0");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ApproxEquals(paper::ExpectedTable2().value(),
                                   kPaperEps));
}

TEST_F(QueryEngineTest, Table3AsQuery) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute(
      "SELECT * FROM RA WHERE speciality IS {mu} AND rating IS {ex} "
      "WITH sn > 0");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ApproxEquals(paper::ExpectedTable3().value(),
                                   kPaperEps));
}

TEST_F(QueryEngineTest, Table4AsQuery) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute("SELECT * FROM RA UNION RB");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ApproxEquals(paper::ExpectedTable4().value(),
                                   kPaperEps));
}

TEST_F(QueryEngineTest, Table5AsQuery) {
  QueryEngine engine(&catalog_);
  auto result =
      engine.Execute("SELECT rname, phone, speciality, rating FROM RA");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ApproxEquals(paper::ExpectedTable5().value(),
                                   kPaperEps));
}

TEST_F(QueryEngineTest, KeysImplicitlyRetainedInProjection) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute("SELECT rating FROM RA");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->schema()->Has("rname"));
  EXPECT_TRUE(result->schema()->Has("rating"));
  EXPECT_EQ(result->schema()->size(), 2u);
}

TEST_F(QueryEngineTest, QueryOverUnion) {
  // Query the integrated relation: restaurants rated excellent with
  // sn >= 0.8 after merging.
  QueryEngine engine(&catalog_);
  auto result = engine.Execute(
      "SELECT rname FROM RA UNION RB WHERE rating IS {ex} WITH sn >= 0.8");
  ASSERT_TRUE(result.ok()) << result.status();
  // country (1,1), mehl (0.83·1), ashiana (1,1) — garden's merged ex mass
  // is only 0.143.
  EXPECT_EQ(result->size(), 3u);
  EXPECT_TRUE(result->ContainsKey({Value("country")}));
  EXPECT_TRUE(result->ContainsKey({Value("mehl")}));
  EXPECT_TRUE(result->ContainsKey({Value("ashiana")}));
}

TEST_F(QueryEngineTest, ThetaConditionWithEvidenceLiteral) {
  QueryEngine engine(&catalog_);
  // Restaurants whose rating evidence equals "excellent for sure".
  auto result =
      engine.Execute("SELECT rname FROM RA WHERE rating = [ex^1]");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ContainsKey({Value("country")}));
  EXPECT_TRUE(result->ContainsKey({Value("ashiana")}));
}

TEST_F(QueryEngineTest, ThetaConditionOnDefiniteAttribute) {
  QueryEngine engine(&catalog_);
  auto result =
      engine.Execute("SELECT rname FROM RA WHERE bldg-no >= 600");
  ASSERT_TRUE(result.ok()) << result.status();
  // garden 2011, wok 600, mehl 820 — mehl has membership (0.5,0.5).
  EXPECT_EQ(result->size(), 3u);
}

TEST_F(QueryEngineTest, JoinQuery) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute(
      "SELECT RA.rname FROM RA JOIN RB WHERE RA.rname = RB.rname "
      "WITH sn > 0");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 5u);
}

TEST_F(QueryEngineTest, WithWithoutWhereThresholds) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute("SELECT * FROM RA WITH sn >= 1");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 5u);  // drops mehl (0.5,0.5)
}

TEST_F(QueryEngineTest, ExplainDescribesPlan) {
  QueryEngine engine(&catalog_);
  auto plan = engine.Explain(
      "SELECT rname FROM RA UNION RB WHERE rating IS {ex} WITH sn > 0.5");
  ASSERT_TRUE(plan.ok());
  // The optimizer slides a pruning projection below the selection, so
  // the select splices only the key and the predicate's column.
  EXPECT_EQ(*plan,
            "project[rname]\n"
            "  select[rating is {ex}; Q: sn > 0.5]\n"
            "    project[rname, rating]\n"
            "      union\n"
            "        scan[RA, 6 rows]\n"
            "        scan[RB, 5 rows]");
}

TEST_F(QueryEngineTest, ExplainUnoptimizedKeepsUserShape) {
  QueryEngine engine(&catalog_);
  engine.set_optimizer_enabled(false);
  auto plan = engine.Explain(
      "SELECT rname FROM RA UNION RB WHERE rating IS {ex} WITH sn > 0.5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(*plan,
            "project[rname]\n"
            "  select[rating is {ex}; Q: sn > 0.5]\n"
            "    union\n"
            "      scan[RA, 6 rows]\n"
            "      scan[RB, 5 rows]");
}

TEST_F(QueryEngineTest, ExplainStatementReturnsPlanRelation) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute(
      "EXPLAIN SELECT rname FROM RA WHERE rating IS {ex}");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->name(), "explain");
  ASSERT_EQ(result->schema()->size(), 2u);
  ASSERT_GE(result->size(), 2u);
  EXPECT_EQ(std::get<Value>(result->row(0).cells[0]), Value(int64_t{1}));
  // The filtered scan chain is lowered to a fused pipeline; the chain it
  // replaced renders indented beneath it.
  EXPECT_EQ(std::get<Value>(result->row(0).cells[1]),
            Value("fused pipeline[1 stage(s), 1 col(s)]"));
  EXPECT_EQ(std::get<Value>(result->row(1).cells[1]),
            Value("  project[rname]"));
}

TEST_F(QueryEngineTest, IntersectQueryKeepsOnlySharedEntities) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute("SELECT * FROM RA INTERSECT RB");
  ASSERT_TRUE(result.ok()) << result.status();
  auto merged = engine.Execute("SELECT * FROM RA UNION RB");
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_LT(result->size(), merged->size());
  for (size_t i = 0; i < result->size(); ++i) {
    const KeyVector key = result->KeyOf(result->row(i));
    EXPECT_TRUE(paper::TableRA().value().ContainsKey(key));
    EXPECT_TRUE(paper::TableRB().value().ContainsKey(key));
  }
}

TEST_F(QueryEngineTest, ErrorsUnknownRelation) {
  QueryEngine engine(&catalog_);
  EXPECT_EQ(engine.Execute("SELECT * FROM nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(QueryEngineTest, ErrorsUnknownAttribute) {
  QueryEngine engine(&catalog_);
  EXPECT_FALSE(engine.Execute("SELECT nope FROM RA").ok());
  EXPECT_FALSE(engine.Execute("SELECT * FROM RA WHERE nope IS {si}").ok());
}

TEST_F(QueryEngineTest, ErrorsEvidenceLiteralWithoutAttribute) {
  QueryEngine engine(&catalog_);
  EXPECT_FALSE(
      engine.Execute("SELECT * FROM RA WHERE [si^1] = [si^1]").ok());
}

TEST_F(QueryEngineTest, ErrorsForeignValueInIs) {
  QueryEngine engine(&catalog_);
  EXPECT_FALSE(
      engine.Execute("SELECT * FROM RA WHERE speciality IS {sushi}").ok());
}

TEST_F(QueryEngineTest, OrderBySnDescending) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute(
      "SELECT rname FROM RA WHERE speciality IS {si, hu, mu} "
      "ORDER BY sn DESC");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GE(result->size(), 2u);
  for (size_t i = 1; i < result->size(); ++i) {
    EXPECT_GE(result->row(i - 1).membership.sn,
              result->row(i).membership.sn);
  }
}

TEST_F(QueryEngineTest, OrderBySpAscending) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute("SELECT rname FROM RA ORDER BY sp ASC");
  ASSERT_TRUE(result.ok()) << result.status();
  for (size_t i = 1; i < result->size(); ++i) {
    EXPECT_LE(result->row(i - 1).membership.sp,
              result->row(i).membership.sp);
  }
}

TEST_F(QueryEngineTest, LimitTruncatesAfterRanking) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute(
      "SELECT rname FROM RA WHERE speciality IS {si, hu, mu} "
      "ORDER BY sn DESC LIMIT 2");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 2u);
  // Ranking reads the membership column and splices the kept rows: no
  // row objects are built on the way.
  EXPECT_EQ(result->rows_materialized(), 0u);
  // wok is [si^1] with membership (1,1): must rank first.
  EXPECT_EQ(std::get<Value>(result->row(0).cells[0]), Value("wok"));
}

TEST_F(QueryEngineTest, LimitWithoutOrderKeepsInputOrder) {
  QueryEngine engine(&catalog_);
  auto result = engine.Execute("SELECT rname FROM RA LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 3u);
  EXPECT_EQ(std::get<Value>(result->row(0).cells[0]), Value("garden"));
}

TEST_F(QueryEngineTest, ExplainShowsOrderAndLimit) {
  QueryEngine engine(&catalog_);
  auto plan = engine.Explain("SELECT rname FROM RA ORDER BY sn LIMIT 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(*plan,
            "limit[5]\n"
            "  order[sn desc]\n"
            "    project[rname]\n"
            "      scan[RA, 6 rows]");
}

TEST(ParserOrderLimitTest, Errors) {
  EXPECT_FALSE(ParseQuery("SELECT * FROM R ORDER sn").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R ORDER BY xx").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R LIMIT 0").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R LIMIT abc").ok());
}

// --- parser-level tests ------------------------------------------------------

TEST(ParserTest, ParsesSelectList) {
  auto q = ParseQuery("SELECT a, b FROM R");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->select, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(q->from.op, eql::SourceOp::kScan);
  EXPECT_EQ(q->from.relations, (std::vector<std::string>{"R"}));
}

TEST(ParserTest, ParsesStar) {
  auto q = ParseQuery("select * from R");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->select.empty());
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  EXPECT_TRUE(ParseQuery("SeLeCt * FrOm R wHeRe a IS {x} WiTh sn > 0").ok());
}

TEST(ParserTest, ParsesUnionJoinProduct) {
  EXPECT_EQ(ParseQuery("SELECT * FROM A UNION B")->from.op,
            eql::SourceOp::kUnion);
  EXPECT_EQ(ParseQuery("SELECT * FROM A JOIN B")->from.op,
            eql::SourceOp::kJoin);
  EXPECT_EQ(ParseQuery("SELECT * FROM A PRODUCT B")->from.op,
            eql::SourceOp::kProduct);
}

TEST(ParserTest, ParsesMultiRelationFromLists) {
  auto commas = ParseQuery("SELECT * FROM A, B, C");
  ASSERT_TRUE(commas.ok()) << commas.status();
  EXPECT_EQ(commas->from.op, eql::SourceOp::kProduct);
  EXPECT_EQ(commas->from.relations, (std::vector<std::string>{"A", "B", "C"}));

  auto chained = ParseQuery("SELECT * FROM A JOIN B JOIN C JOIN D");
  ASSERT_TRUE(chained.ok()) << chained.status();
  EXPECT_EQ(chained->from.op, eql::SourceOp::kJoin);
  EXPECT_EQ(chained->from.relations,
            (std::vector<std::string>{"A", "B", "C", "D"}));

  // A mixed chain is a join: each comma is a pure product factor, and a
  // product is a join with an always-true predicate.
  auto mixed = ParseQuery("SELECT * FROM A, B JOIN C");
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  EXPECT_EQ(mixed->from.op, eql::SourceOp::kJoin);
  EXPECT_EQ(mixed->from.relations, (std::vector<std::string>{"A", "B", "C"}));

  // UNION / INTERSECT stay strictly binary.
  EXPECT_FALSE(ParseQuery("SELECT * FROM A UNION B UNION C").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM A, B UNION C").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM A, ").ok());
}

TEST(ParserTest, ParsesIsConditionValues) {
  auto q = ParseQuery("SELECT * FROM R WHERE a IS {x, y, 3}");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->where.size(), 1u);
  const auto& cond = std::get<eql::IsCondition>(q->where[0]);
  EXPECT_EQ(cond.attribute, "a");
  EXPECT_EQ(cond.values, (std::vector<std::string>{"x", "y", "3"}));
}

TEST(ParserTest, ParsesThetaKinds) {
  auto q = ParseQuery("SELECT * FROM R WHERE a <= [x^0.5, y^0.5]");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& cond = std::get<eql::ThetaCondition>(q->where[0]);
  EXPECT_EQ(cond.op, ThetaOp::kLe);
  EXPECT_EQ(cond.lhs.kind, eql::RawOperand::Kind::kAttribute);
  EXPECT_EQ(cond.rhs.kind, eql::RawOperand::Kind::kEvidenceLiteral);
}

TEST(ParserTest, ParsesWithBounds) {
  auto q = ParseQuery("SELECT * FROM R WITH sn > 0.5 AND sp <= 0.9");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->with.atoms().size(), 2u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("SELECT").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R WITH sn >").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R WITH xx > 0").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R trailing").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM R WHERE a IS {x").ok());
}

}  // namespace
}  // namespace evident
