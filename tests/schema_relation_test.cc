#include <gtest/gtest.h>

#include "core/extended_relation.h"
#include "core/schema.h"
#include "workload/paper_fixtures.h"

namespace evident {
namespace {

Result<SchemaPtr> SimpleSchema() {
  return RelationSchema::Make({
      AttributeDef::Key("id"),
      AttributeDef::Definite("label"),
      AttributeDef::Uncertain("colour",
                              Domain::MakeSymbolic("colour",
                                                   {"red", "green", "blue"})
                                  .value()),
  });
}

TEST(SchemaTest, MakeValidSchema) {
  auto schema = SimpleSchema();
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ((*schema)->size(), 3u);
  EXPECT_EQ((*schema)->key_indices(), (std::vector<size_t>{0}));
  EXPECT_EQ((*schema)->nonkey_indices(), (std::vector<size_t>{1, 2}));
}

TEST(SchemaTest, RejectsEmpty) {
  EXPECT_FALSE(RelationSchema::Make({}).ok());
}

TEST(SchemaTest, RejectsDuplicateNames) {
  auto schema = RelationSchema::Make(
      {AttributeDef::Key("a"), AttributeDef::Definite("a")});
  EXPECT_EQ(schema.status().code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, RejectsNoKey) {
  EXPECT_FALSE(RelationSchema::Make({AttributeDef::Definite("a")}).ok());
}

TEST(SchemaTest, RejectsUncertainWithoutDomain) {
  EXPECT_FALSE(RelationSchema::Make(
                   {AttributeDef::Key("k"),
                    AttributeDef{"u", AttributeKind::kUncertain, nullptr}})
                   .ok());
}

TEST(SchemaTest, IndexOfAndHas) {
  auto schema = SimpleSchema().value();
  EXPECT_EQ(schema->IndexOf("colour").value(), 2u);
  EXPECT_TRUE(schema->Has("id"));
  EXPECT_FALSE(schema->Has("nope"));
  EXPECT_EQ(schema->IndexOf("nope").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, UnionCompatibility) {
  auto a = SimpleSchema().value();
  auto b = SimpleSchema().value();
  EXPECT_TRUE(a->UnionCompatibleWith(*b));
  auto c = RelationSchema::Make({AttributeDef::Key("id")}).value();
  EXPECT_FALSE(a->UnionCompatibleWith(*c));
}

TEST(SchemaTest, ToStringMarksKeysAndUncertain) {
  auto schema = SimpleSchema().value();
  EXPECT_EQ(schema->ToString(), "(id*, label, †colour)");
}

// ---------------------------------------------------------------------------

ExtendedTuple MakeTuple(const SchemaPtr& schema, const std::string& id,
                        const std::string& label, const char* colour,
                        SupportPair membership) {
  ExtendedTuple t;
  t.cells = {Value(id), Value(label),
             EvidenceSet::Definite(schema->attribute(2).domain, Value(colour))
                 .value()};
  t.membership = membership;
  return t;
}

TEST(ExtendedRelationTest, InsertAndLookup) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  ASSERT_TRUE(
      r.Insert(MakeTuple(schema, "x", "one", "red", SupportPair::Certain()))
          .ok());
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.ContainsKey({Value("x")}));
  EXPECT_FALSE(r.ContainsKey({Value("y")}));
  EXPECT_EQ(r.FindByKey({Value("x")}).value(), 0u);
}

TEST(ExtendedRelationTest, InsertRejectsDuplicateKey) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  ASSERT_TRUE(
      r.Insert(MakeTuple(schema, "x", "one", "red", SupportPair::Certain()))
          .ok());
  EXPECT_EQ(r.Insert(MakeTuple(schema, "x", "two", "blue",
                               SupportPair::Certain()))
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(ExtendedRelationTest, InsertRejectsWrongArity) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t;
  t.cells = {Value("x")};
  EXPECT_EQ(r.Insert(std::move(t)).code(), StatusCode::kInvalidArgument);
}

TEST(ExtendedRelationTest, InsertRejectsEvidenceInKey) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t;
  t.cells = {EvidenceSet::Vacuous(schema->attribute(2).domain), Value("l"),
             EvidenceSet::Vacuous(schema->attribute(2).domain)};
  EXPECT_EQ(r.Insert(std::move(t)).code(), StatusCode::kInvalidArgument);
}

TEST(ExtendedRelationTest, InsertRejectsValueInUncertainSlot) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t;
  t.cells = {Value("x"), Value("l"), Value("red")};
  EXPECT_EQ(r.Insert(std::move(t)).code(), StatusCode::kInvalidArgument);
}

TEST(ExtendedRelationTest, InsertRejectsWrongEvidenceDomain) {
  auto schema = SimpleSchema().value();
  auto other = Domain::MakeSymbolic("size", {"s", "m", "l"}).value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t;
  t.cells = {Value("x"), Value("l"), EvidenceSet::Vacuous(other)};
  EXPECT_EQ(r.Insert(std::move(t)).code(), StatusCode::kIncompatible);
}

TEST(ExtendedRelationTest, InsertEnforcesCWAER) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  EXPECT_FALSE(
      r.Insert(MakeTuple(schema, "x", "one", "red", SupportPair::Unknown()))
          .ok());
  EXPECT_TRUE(r.InsertUnchecked(
                   MakeTuple(schema, "x", "one", "red", SupportPair::Unknown()))
                  .ok());
}

TEST(ExtendedRelationTest, InsertRejectsInvalidMembership) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  EXPECT_FALSE(
      r.Insert(MakeTuple(schema, "x", "one", "red", SupportPair(0.9, 0.1)))
          .ok());
}

TEST(ExtendedRelationTest, ValidateInvariantsOnPaperTables) {
  auto ra = paper::TableRA();
  auto rb = paper::TableRB();
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_TRUE(ra->ValidateInvariants().ok());
  EXPECT_TRUE(rb->ValidateInvariants().ok());
  EXPECT_EQ(ra->size(), 6u);
  EXPECT_EQ(rb->size(), 5u);
}

TEST(ExtendedRelationTest, ValidateInvariantsNeverBuildsTheRowImage) {
  auto schema = SimpleSchema().value();
  static constexpr const char* kColours[] = {"red", "green", "blue"};
  ExtendedRelation r("R", schema);
  for (size_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(r.Insert(MakeTuple(schema, "k" + std::to_string(i), "l",
                                   kColours[i % 3],
                                   SupportPair(0.5, 0.5 + 0.0001 * i)))
                    .ok());
  }
  EXPECT_TRUE(r.ValidateInvariants().ok());
  EXPECT_EQ(r.rows_materialized(), 0u);

  // The first violating row (in row order) is reported, and the row
  // image is still not built.
  ExtendedRelation bad("B", schema);
  ASSERT_TRUE(bad.Insert(MakeTuple(schema, "a", "l", "red",
                                   SupportPair::Certain()))
                  .ok());
  ASSERT_TRUE(bad.InsertUnchecked(MakeTuple(schema, "b", "l", "red",
                                            SupportPair(0.0, 0.4)))
                  .ok());
  ASSERT_TRUE(bad.InsertUnchecked(MakeTuple(schema, "c", "l", "red",
                                            SupportPair(0.0, 0.7)))
                  .ok());
  const Status invalid = bad.ValidateInvariants();
  EXPECT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(invalid.message(),
            "CWA_ER violation: stored tuples must have sn > 0, got " +
                SupportPair(0.0, 0.4).ToString());
  EXPECT_EQ(bad.rows_materialized(), 0u);
}

TEST(ExtendedRelationTest, ApproxEqualsIgnoresRowOrder) {
  auto schema = SimpleSchema().value();
  ExtendedRelation a("A", schema);
  ExtendedRelation b("B", schema);
  ASSERT_TRUE(
      a.Insert(MakeTuple(schema, "x", "1", "red", SupportPair::Certain()))
          .ok());
  ASSERT_TRUE(
      a.Insert(MakeTuple(schema, "y", "2", "blue", SupportPair::Certain()))
          .ok());
  ASSERT_TRUE(
      b.Insert(MakeTuple(schema, "y", "2", "blue", SupportPair::Certain()))
          .ok());
  ASSERT_TRUE(
      b.Insert(MakeTuple(schema, "x", "1", "red", SupportPair::Certain()))
          .ok());
  EXPECT_TRUE(a.ApproxEquals(b));
}

TEST(ExtendedRelationTest, ApproxEqualsDetectsCellDifference) {
  auto schema = SimpleSchema().value();
  ExtendedRelation a("A", schema);
  ExtendedRelation b("B", schema);
  ASSERT_TRUE(
      a.Insert(MakeTuple(schema, "x", "1", "red", SupportPair::Certain()))
          .ok());
  ASSERT_TRUE(
      b.Insert(MakeTuple(schema, "x", "1", "blue", SupportPair::Certain()))
          .ok());
  EXPECT_FALSE(a.ApproxEquals(b));
}

TEST(ExtendedRelationTest, ApproxEqualsDetectsMembershipDifference) {
  auto schema = SimpleSchema().value();
  ExtendedRelation a("A", schema);
  ExtendedRelation b("B", schema);
  ASSERT_TRUE(
      a.Insert(MakeTuple(schema, "x", "1", "red", SupportPair::Certain()))
          .ok());
  ASSERT_TRUE(
      b.Insert(MakeTuple(schema, "x", "1", "red", SupportPair(0.5, 1.0)))
          .ok());
  EXPECT_FALSE(a.ApproxEquals(b));
}

TEST(ExtendedRelationTest, CompositeKey) {
  auto schema =
      RelationSchema::Make({AttributeDef::Key("a"), AttributeDef::Key("b"),
                            AttributeDef::Definite("v")})
          .value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t1;
  t1.cells = {Value(int64_t{1}), Value(int64_t{2}), Value("x")};
  ExtendedTuple t2;
  t2.cells = {Value(int64_t{2}), Value(int64_t{1}), Value("y")};
  ASSERT_TRUE(r.Insert(std::move(t1)).ok());
  ASSERT_TRUE(r.Insert(std::move(t2)).ok());  // reversed key is distinct
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.ContainsKey({Value(int64_t{1}), Value(int64_t{2})}));
}

}  // namespace
}  // namespace evident
