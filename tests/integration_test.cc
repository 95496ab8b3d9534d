// End-to-end tests of the Figure-1 integration framework: vote
// consolidation, menu classification, attribute preprocessing, entity
// identification, tuple merging, and the full pipeline reproducing the
// paper's tables from raw survey exports.
#include "integration/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "core/operations.h"
#include "integration/vote.h"
#include "workload/paper_fixtures.h"
#include "workload/paper_survey.h"

namespace evident {
namespace {

using paper::kPaperEps;

TEST(VoteTableTest, ConsolidatePaperExample) {
  // §1.2: votes d1:3, d2:2, d3:1 → [d1^0.5, d2^0.33, d3^0.17].
  VoteTable votes;
  ASSERT_TRUE(votes.AddVotes({Value("d1")}, 3).ok());
  ASSERT_TRUE(votes.AddVotes({Value("d2")}, 2).ok());
  ASSERT_TRUE(votes.AddVotes({Value("d3")}, 1).ok());
  auto es = votes.Consolidate(paper::DishDomain());
  ASSERT_TRUE(es.ok()) << es.status();
  EXPECT_NEAR(es->Belief({Value("d1")}).value(), 0.5, 1e-12);
  EXPECT_NEAR(es->Belief({Value("d2")}).value(), 1.0 / 3, 1e-12);
  EXPECT_NEAR(es->Belief({Value("d3")}).value(), 1.0 / 6, 1e-12);
}

TEST(VoteTableTest, RatingExample) {
  // §1.2: excellent:2, good:4 → [ex^0.33, gd^0.67].
  VoteTable votes;
  ASSERT_TRUE(votes.AddVotes({Value("ex")}, 2).ok());
  ASSERT_TRUE(votes.AddVotes({Value("gd")}, 4).ok());
  auto es = votes.Consolidate(paper::RatingDomain());
  ASSERT_TRUE(es.ok());
  EXPECT_NEAR(es->Belief({Value("ex")}).value(), 1.0 / 3, 1e-12);
  EXPECT_NEAR(es->Belief({Value("gd")}).value(), 2.0 / 3, 1e-12);
}

TEST(VoteTableTest, ParseRoundTrip) {
  auto votes = VoteTable::Parse("d31:3; {d35,d36}:2; *:1");
  ASSERT_TRUE(votes.ok()) << votes.status();
  EXPECT_DOUBLE_EQ(votes->TotalVotes(), 6.0);
  auto es = votes->Consolidate(paper::DishDomain());
  ASSERT_TRUE(es.ok());
  EXPECT_NEAR(es->Plausibility({Value("d35")}).value(), 0.5, 1e-12);
}

TEST(VoteTableTest, ParseErrors) {
  EXPECT_FALSE(VoteTable::Parse("").ok());
  EXPECT_FALSE(VoteTable::Parse("d1").ok());
  EXPECT_FALSE(VoteTable::Parse("d1:abc").ok());
  EXPECT_FALSE(VoteTable::Parse("d1:-3").ok());
}

TEST(VoteTableTest, RejectsNonPositiveVotes) {
  VoteTable votes;
  EXPECT_FALSE(votes.AddVotes({Value("d1")}, 0).ok());
  EXPECT_FALSE(votes.AddVotes({Value("d1")}, -1).ok());
}

TEST(VoteTableTest, ConsolidateEmptyFails) {
  VoteTable votes;
  EXPECT_FALSE(votes.Consolidate(paper::DishDomain()).ok());
}

TEST(MenuClassifierTest, PaperWokExample) {
  // §2.1: half the menu pure Cantonese, a third in {hunan, sichuan},
  // the rest unclassifiable.
  auto domain = Domain::MakeSymbolic(
                    "speciality-full", {"american", "hunan", "sichuan",
                                        "cantonese", "mughalai", "italian"})
                    .value();
  MenuClassifier classifier(domain);
  ASSERT_TRUE(classifier.AddItem("dimsum", {Value("cantonese")}).ok());
  ASSERT_TRUE(classifier.AddItem("roastduck", {Value("cantonese")}).ok());
  ASSERT_TRUE(classifier.AddItem("congee", {Value("cantonese")}).ok());
  ASSERT_TRUE(
      classifier
          .AddItem("spicytofu", {Value("hunan"), Value("sichuan")})
          .ok());
  ASSERT_TRUE(
      classifier.AddItem("hotpot", {Value("hunan"), Value("sichuan")}).ok());
  auto es = classifier.Classify(
      {"dimsum", "roastduck", "congee", "spicytofu", "hotpot", "mystery"});
  ASSERT_TRUE(es.ok()) << es.status();
  // m({cantonese}) = 1/2, m({hunan,sichuan}) = 1/3, m(Θ) = 1/6.
  EXPECT_NEAR(es->Belief({Value("cantonese")}).value(), 0.5, 1e-12);
  EXPECT_NEAR(
      es->Belief({Value("hunan"), Value("sichuan")}).value(), 1.0 / 3,
      1e-12);
  EXPECT_NEAR(es->Belief({Value("cantonese"), Value("hunan"),
                          Value("sichuan")})
                  .value(),
              5.0 / 6, 1e-12);  // the paper's Bel example
}

TEST(MenuClassifierTest, RejectsBadTaxonomyEntries) {
  MenuClassifier classifier(paper::SpecialityDomain());
  EXPECT_FALSE(classifier.AddItem("", {Value("si")}).ok());
  EXPECT_FALSE(classifier.AddItem("x", {}).ok());
  EXPECT_FALSE(classifier.AddItem("x", {Value("nope")}).ok());
}

TEST(MenuClassifierTest, EmptyMenuFails) {
  MenuClassifier classifier(paper::SpecialityDomain());
  EXPECT_FALSE(classifier.Classify({}).ok());
}

TEST(PreprocessorTest, ReproducesTableRA) {
  auto config = paper::PaperPipelineConfig().value();
  AttributePreprocessor pre(config.global_schema, config.derivations_a,
                            config.membership_a);
  auto ra = pre.Run(paper::RawSurveyA());
  ASSERT_TRUE(ra.ok()) << ra.status();
  auto expected = paper::TableRA().value();
  EXPECT_TRUE(ra->ApproxEquals(expected, 1e-9))
      << "got:\n"
      << ra->ToString(3) << "expected:\n"
      << expected.ToString(3);
}

TEST(PreprocessorTest, ReproducesTableRBWithValueMap) {
  auto config = paper::PaperPipelineConfig().value();
  AttributePreprocessor pre(config.global_schema, config.derivations_b,
                            config.membership_b);
  auto rb = pre.Run(paper::RawSurveyB());
  ASSERT_TRUE(rb.ok()) << rb.status();
  auto expected = paper::TableRB().value();
  EXPECT_TRUE(rb->ApproxEquals(expected, 1e-9))
      << "got:\n"
      << rb->ToString(3) << "expected:\n"
      << expected.ToString(3);
}

TEST(PreprocessorTest, RejectsMissingDerivation) {
  auto config = paper::PaperPipelineConfig().value();
  auto derivations = config.derivations_a;
  derivations.pop_back();
  AttributePreprocessor pre(config.global_schema, derivations,
                            config.membership_a);
  EXPECT_FALSE(pre.Run(paper::RawSurveyA()).ok());
}

TEST(PreprocessorTest, RejectsKindMismatch) {
  auto config = paper::PaperPipelineConfig().value();
  auto derivations = config.derivations_a;
  // "street" is definite; deriving it from votes must be rejected.
  for (auto& d : derivations) {
    if (d.target == "street") d.kind = DerivationKind::kVotes;
  }
  AttributePreprocessor pre(config.global_schema, derivations,
                            config.membership_a);
  EXPECT_FALSE(pre.Run(paper::RawSurveyA()).ok());
}

TEST(PreprocessorTest, RejectsUnknownColumn) {
  auto config = paper::PaperPipelineConfig().value();
  auto derivations = config.derivations_a;
  derivations[0].source_column = "nope";
  AttributePreprocessor pre(config.global_schema, derivations,
                            config.membership_a);
  EXPECT_FALSE(pre.Run(paper::RawSurveyA()).ok());
}

/// One key column plus one numeric column converted by `transform`.
Result<ExtendedRelation> RunTransform(const LinearTransform& transform,
                                      const std::vector<std::string>& amounts) {
  auto schema = RelationSchema::Make({AttributeDef::Key("id"),
                                      AttributeDef::Definite("amount")})
                    .value();
  AttributeDerivation id;
  id.target = "id";
  id.source_column = "id";
  AttributeDerivation amount;
  amount.target = "amount";
  amount.source_column = "amount";
  amount.transform = transform;
  RawTable raw;
  raw.name = "T";
  raw.columns = {"id", "amount"};
  for (size_t i = 0; i < amounts.size(); ++i) {
    raw.rows.push_back({"r" + std::to_string(i), amounts[i]});
  }
  return AttributePreprocessor(schema, {id, amount}).Run(raw);
}

TEST(PreprocessorTest, LinearTransformBeyondInt64GivesARealValue) {
  // Results outside [-2^63, 2^63) cannot round-trip through int64; they
  // stay reals instead of reaching an undefined conversion.
  auto rel = RunTransform(LinearTransform::Of(1000),
                          {"9223372036854775807", "-9223372036854775808",
                           "5"});
  ASSERT_TRUE(rel.ok()) << rel.status();
  const auto& amounts = rel->columns().value_column(1).values;
  ASSERT_TRUE(amounts[0].is_real());
  EXPECT_EQ(amounts[0].real_value(), 9223372036854775807.0 * 1000);
  ASSERT_TRUE(amounts[1].is_real());
  EXPECT_EQ(amounts[1].real_value(), -9223372036854775808.0 * 1000);
  ASSERT_TRUE(amounts[2].is_int());
  EXPECT_EQ(amounts[2].int_value(), 5000);
  // 2^63 - 1 rounds to 2^63 as a double: just outside the int64 range.
  auto edge = RunTransform(LinearTransform::Of(1), {"9223372036854775807"});
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_TRUE(edge->columns().value_column(1).values[0].is_real());
}

TEST(PreprocessorTest, NonFiniteLinearTransformIsAnError) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [transform, amount] :
       std::vector<std::pair<LinearTransform, std::string>>{
           {LinearTransform::Of(nan), "5"},
           {LinearTransform::Of(inf), "0"},
           {LinearTransform::Of(1), "nan"},
           {LinearTransform::Of(1e300), "1e300"}}) {
    auto rel = RunTransform(transform, {"7", amount});
    ASSERT_FALSE(rel.ok()) << amount;
    EXPECT_EQ(rel.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rel.status().message().find("is not finite"),
              std::string::npos)
        << rel.status();
  }
}

TEST(EntityIdentifierTest, MatchByKeyOnPaperTables) {
  auto ra = paper::TableRA().value();
  auto rb = paper::TableRB().value();
  auto matching = MatchByKey(ra, rb);
  ASSERT_TRUE(matching.ok()) << matching.status();
  EXPECT_EQ(matching->matches.size(), 5u);
  ASSERT_EQ(matching->unmatched_left.size(), 1u);
  // ashiana exists only in R_A.
  EXPECT_EQ(std::get<Value>(
                ra.row(matching->unmatched_left[0]).cells[0]),
            Value("ashiana"));
  EXPECT_TRUE(matching->unmatched_right.empty());
}

TEST(EntityIdentifierTest, MatchBySimilarityHandlesTypos) {
  auto schema = RelationSchema::Make({AttributeDef::Key("name"),
                                      AttributeDef::Definite("street")})
                    .value();
  ExtendedRelation left("L", schema);
  ExtendedRelation right("R", schema);
  auto add = [&](ExtendedRelation* r, const char* name, const char* street) {
    ExtendedTuple t;
    t.cells = {Value(name), Value(street)};
    ASSERT_TRUE(r->Insert(std::move(t)).ok());
  };
  add(&left, "golden wok", "washington ave");
  add(&left, "olive garden", "nicollet ave");
  add(&right, "golden wok.", "washington ave");  // trailing dot typo
  add(&right, "uptown diner", "hennepin ave");

  SimilarityMatchOptions options;
  options.threshold = 0.8;
  auto matching = MatchBySimilarity(left, right, options);
  ASSERT_TRUE(matching.ok()) << matching.status();
  ASSERT_EQ(matching->matches.size(), 1u);
  EXPECT_EQ(matching->matches[0].left_row, 0u);
  EXPECT_EQ(matching->matches[0].right_row, 0u);
  EXPECT_GT(matching->matches[0].score, 0.8);
  EXPECT_EQ(matching->unmatched_left.size(), 1u);
  EXPECT_EQ(matching->unmatched_right.size(), 1u);
}

TEST(EntityIdentifierTest, SimilarityMatchesTheRowByRowDefinition) {
  // Near-duplicate names and streets across two relations; the matcher
  // (which renders each value once, off the value columns) must give the
  // matches, scores and order of scoring every pair from the rows.
  auto schema = RelationSchema::Make({AttributeDef::Key("name"),
                                      AttributeDef::Definite("street"),
                                      AttributeDef::Definite("seats")})
                    .value();
  ExtendedRelation left("L", schema);
  ExtendedRelation right("R", schema);
  for (int i = 0; i < 24; ++i) {
    ExtendedTuple l;
    l.cells = {Value("wok " + std::to_string(i)),
               Value("main st " + std::to_string(i % 5)),
               Value(int64_t{10 + i % 3})};
    ASSERT_TRUE(left.Insert(std::move(l)).ok());
    ExtendedTuple r;
    r.cells = {Value("wok  " + std::to_string((i * 7) % 24)),
               Value("main st " + std::to_string(i % 4)),
               Value(10.0 + i % 2)};
    ASSERT_TRUE(right.Insert(std::move(r)).ok());
  }
  SimilarityMatchOptions options;
  options.threshold = 0.7;
  auto matching = MatchBySimilarity(left, right, options);
  ASSERT_TRUE(matching.ok()) << matching.status();

  struct Candidate {
    size_t l, r;
    double score;
  };
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      double total = 0.0;
      for (size_t a = 0; a < 3; ++a) {
        total += StringSimilarity(
            std::get<Value>(left.row(i).cells[a]).ToString(),
            std::get<Value>(right.row(j).cells[a]).ToString());
      }
      if (total / 3 >= options.threshold) {
        candidates.push_back({i, j, total / 3});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.l != b.l) return a.l < b.l;
              return a.r < b.r;
            });
  std::vector<bool> used_l(left.size()), used_r(right.size());
  std::vector<Candidate> expected;
  for (const Candidate& c : candidates) {
    if (used_l[c.l] || used_r[c.r]) continue;
    used_l[c.l] = used_r[c.r] = true;
    expected.push_back(c);
  }
  ASSERT_GT(expected.size(), 5u);
  ASSERT_EQ(matching->matches.size(), expected.size());
  for (size_t m = 0; m < expected.size(); ++m) {
    EXPECT_EQ(matching->matches[m].left_row, expected[m].l);
    EXPECT_EQ(matching->matches[m].right_row, expected[m].r);
    EXPECT_EQ(std::memcmp(&matching->matches[m].score, &expected[m].score,
                          sizeof(double)),
              0);
  }
}

TEST(EntityIdentifierTest, SimilarityRejectsUncertainAttribute) {
  auto ra = paper::TableRA().value();
  SimilarityMatchOptions options;
  options.compare_attributes = {"speciality"};
  EXPECT_FALSE(MatchBySimilarity(ra, ra, options).ok());
}

TEST(TupleMergerTest, KeyMatchingEqualsExtendedUnion) {
  auto ra = paper::TableRA().value();
  auto rb = paper::TableRB().value();
  auto matching = MatchByKey(ra, rb).value();
  auto merged = MergeTuples(ra, rb, matching);
  ASSERT_TRUE(merged.ok()) << merged.status();
  auto direct = Union(ra, rb).value();
  EXPECT_TRUE(merged->ApproxEquals(direct, 1e-12));
}

TEST(TupleMergerTest, MergesAcrossDifferentKeys) {
  auto domain = Domain::MakeSymbolic("c", {"x", "y"}).value();
  auto schema = RelationSchema::Make({AttributeDef::Key("name"),
                                      AttributeDef::Uncertain("u", domain)})
                    .value();
  ExtendedRelation left("L", schema);
  ExtendedRelation right("R", schema);
  ExtendedTuple lt;
  lt.cells = {Value("wok cafe"),
              EvidenceSet::FromPairs(domain, {{{Value("x")}, 0.6}, {{}, 0.4}})
                  .value()};
  ASSERT_TRUE(left.Insert(std::move(lt)).ok());
  ExtendedTuple rt;
  rt.cells = {Value("wok caffe"),
              EvidenceSet::FromPairs(domain, {{{Value("x")}, 0.5}, {{}, 0.5}})
                  .value()};
  ASSERT_TRUE(right.Insert(std::move(rt)).ok());

  MatchingInfo matching;
  matching.matches.push_back(TupleMatch{0, 0, 0.9});
  auto merged = MergeTuples(left, right, matching);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_EQ(merged->size(), 1u);
  // Merged under the left key.
  EXPECT_TRUE(merged->ContainsKey({Value("wok cafe")}));
  const auto& es = std::get<EvidenceSet>(merged->row(0).cells[1]);
  // Dempster: m(x) = (0.3+0.2+0.3)/1 = 0.8 (no conflict).
  EXPECT_NEAR(es.Belief({Value("x")}).value(), 0.8, 1e-12);
}

TEST(TupleMergerTest, RejectsIncompleteMatching) {
  auto ra = paper::TableRA().value();
  auto rb = paper::TableRB().value();
  MatchingInfo empty;  // covers nothing
  EXPECT_FALSE(MergeTuples(ra, rb, empty).ok());
}

TEST(PipelineTest, FullFigureOnePipelineReproducesTable4) {
  auto config = paper::PaperPipelineConfig().value();
  IntegrationPipeline pipeline(config);
  auto run = pipeline.Run(paper::RawSurveyA(), paper::RawSurveyB());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->preprocessed_a.ApproxEquals(paper::TableRA().value(),
                                               1e-9));
  EXPECT_TRUE(run->preprocessed_b.ApproxEquals(paper::TableRB().value(),
                                               1e-9));
  EXPECT_EQ(run->matching.matches.size(), 5u);
  auto expected = paper::ExpectedTable4().value();
  ExtendedRelation integrated = run->integrated;
  integrated.set_name(expected.name());
  EXPECT_TRUE(integrated.ApproxEquals(expected, kPaperEps))
      << "got:\n"
      << integrated.ToString(3) << "expected:\n"
      << expected.ToString(3);
}

TEST(PipelineTest, SimilarityIdentificationPath) {
  auto config = paper::PaperPipelineConfig().value();
  config.identification = EntityIdentification::kBySimilarity;
  config.similarity.compare_attributes = {"rname", "street", "phone"};
  config.similarity.threshold = 0.9;
  IntegrationPipeline pipeline(config);
  auto run = pipeline.Run(paper::RawSurveyA(), paper::RawSurveyB());
  ASSERT_TRUE(run.ok()) << run.status();
  // Identical names/streets/phones: same 5 matches as key-based.
  EXPECT_EQ(run->matching.matches.size(), 5u);
  EXPECT_EQ(run->integrated.size(), 6u);
}

}  // namespace
}  // namespace evident
