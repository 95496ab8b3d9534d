// The join executor (Join, Product and the n-way join) and the parallel
// tuple-range executor: differential tests against the reference
// evaluator's Select-over-Product definition (tests/reference),
// plan-analysis unit tests, the row-id guard, and threaded-vs-serial
// determinism for Join / the n-way join / Union / MergeTuples.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/fault_injection.h"
#include "core/join_plan.h"
#include "core/operations.h"
#include "core/parallel.h"
#include "integration/entity_identifier.h"
#include "integration/tuple_merger.h"
#include "reference/reference.h"
#include "workload/generator.h"

namespace evident {
namespace {

/// Restores the executor's default thread cap when a test scope ends.
class ScopedMaxThreads {
 public:
  explicit ScopedMaxThreads(size_t n) { SetParallelMaxThreads(n); }
  ~ScopedMaxThreads() { SetParallelMaxThreads(0); }
};

/// The engine's join under {scalar, SIMD} x {threads 1, 7}: bit-identical
/// with strict row order across the modes (same error message on
/// failure), and equal to the reference evaluator's σ̃ over the product
/// keyed by key — bit-identical cells and memberships, same status code.
void ExpectJoinMatchesReference(const ExtendedRelation& left,
                                const ExtendedRelation& right,
                                const PredicatePtr& predicate,
                                const MembershipThreshold& threshold,
                                const std::string& what) {
  std::vector<Result<ExtendedRelation>> outcomes;
  for (bool simd : {false, true}) {
    for (size_t threads : {size_t{1}, size_t{7}}) {
      SetBatchSimdEnabled(simd);
      ScopedMaxThreads cap(threads);
      outcomes.push_back(Join(left, right, predicate, threshold));
    }
  }
  SetBatchSimdEnabled(true);
  for (size_t m = 1; m < outcomes.size(); ++m) {
    EXPECT_EQ(reference::DiffInOrder(outcomes[0], outcomes[m]), "")
        << what << " mode " << m;
  }
  EXPECT_EQ(reference::DiffByKey(outcomes[0], reference::Join(left, right,
                                                              predicate,
                                                              threshold)),
            "")
      << what;
}

/// Two generated relations joinable on their "key" attribute, with a
/// controlled fraction of overlapping keys.
std::pair<ExtendedRelation, ExtendedRelation> MakeKeyedPair(
    size_t tuples, double overlap, uint64_t seed = 99) {
  WorkloadGenerator gen(seed);
  GeneratorOptions options;
  options.num_tuples = tuples;
  options.num_definite = 1;
  options.num_uncertain = 2;
  options.domain_size = 10;
  auto schema = gen.MakeSchema(options).value();
  auto left = gen.MakeRelation("L", schema, options, /*key_start=*/0).value();
  const size_t start =
      tuples - static_cast<size_t>(overlap * static_cast<double>(tuples));
  auto right =
      gen.MakeRelation("R", schema, options, /*key_start=*/start).value();
  return {std::move(left), std::move(right)};
}

/// A pair of small relations with a *skewed, non-key* definite group
/// attribute (many-to-many matches) plus an uncertain attribute.
std::pair<ExtendedRelation, ExtendedRelation> MakeSkewedPair() {
  auto dom = Domain::MakeSymbolic("col", {"a", "b", "c", "d"}).value();
  auto schema = RelationSchema::Make({AttributeDef::Key("id"),
                                      AttributeDef::Definite("grp"),
                                      AttributeDef::Uncertain("u", dom)})
                    .value();
  WorkloadGenerator gen(7);
  GeneratorOptions opt;
  ExtendedRelation left("L", schema);
  ExtendedRelation right("R", schema);
  // 80% of left rows land in group g0; right splits g0/g1/g9 (g9 is
  // matchless on both sides).
  for (size_t i = 0; i < 40; ++i) {
    ExtendedTuple t;
    t.cells = {Value("l" + std::to_string(i)),
               Value("g" + std::to_string(i % 10 < 8 ? 0 : i % 10)),
               Cell(gen.RandomEvidence(dom, opt).value())};
    t.membership = SupportPair(0.25 + 0.01 * static_cast<double>(i % 3), 1.0);
    EXPECT_TRUE(left.Insert(std::move(t)).ok());
  }
  for (size_t i = 0; i < 25; ++i) {
    ExtendedTuple t;
    t.cells = {Value("r" + std::to_string(i)),
               Value("g" + std::to_string(i % 3 == 0 ? 0 : (i % 3 == 1 ? 1 : 9))),
               Cell(gen.RandomEvidence(dom, opt).value())};
    t.membership = SupportPair(0.5, 0.75 + 0.01 * static_cast<double>(i % 5));
    EXPECT_TRUE(right.Insert(std::move(t)).ok());
  }
  return {std::move(left), std::move(right)};
}

// ---------------------------------------------------------------------------
// Plan analysis

std::vector<size_t> OperandCounts(const ExtendedRelation& left,
                                  const ExtendedRelation& right) {
  return {left.schema()->size(), right.schema()->size()};
}

TEST(JoinPlanTest, ExtractsDefiniteEquiConjunctsAndResidual) {
  auto [left, right] = MakeSkewedPair();
  auto schema = MakeProductSchema(left, right).value();
  PredicatePtr pred =
      And({Theta(ThetaOperand::Attr("L.grp"), ThetaOp::kEq,
                 ThetaOperand::Attr("R.grp")),
           IsSym("L.u", {"a", "b"}),
           Theta(ThetaOperand::Attr("L.id"), ThetaOp::kEq,
                 ThetaOperand::Attr("R.id"))});
  auto plan = AnalyzeJoinPredicate(pred, *schema, OperandCounts(left, right));
  ASSERT_TRUE(plan.status.ok()) << plan.status;
  ASSERT_EQ(plan.edges.size(), 2u);
  EXPECT_EQ(plan.edges[0].left_index, 1u);   // grp
  EXPECT_EQ(plan.edges[0].right_index, 1u);
  EXPECT_EQ(plan.edges[1].left_index, 0u);   // id
  EXPECT_EQ(plan.edges[1].right_index, 0u);
  ASSERT_NE(plan.ResidualPredicate(), nullptr);
  EXPECT_EQ(plan.ResidualPredicate()->ToString(), "L.u is {a,b}");
}

TEST(JoinPlanTest, FullyCoveredPredicateHasNoResidual) {
  auto [left, right] = MakeSkewedPair();
  auto schema = MakeProductSchema(left, right).value();
  PredicatePtr pred = Theta(ThetaOperand::Attr("L.grp"), ThetaOp::kEq,
                            ThetaOperand::Attr("R.grp"));
  auto plan = AnalyzeJoinPredicate(pred, *schema, OperandCounts(left, right));
  ASSERT_TRUE(plan.status.ok()) << plan.status;
  EXPECT_EQ(plan.edges.size(), 1u);
  EXPECT_EQ(plan.ResidualPredicate(), nullptr);
}

TEST(JoinPlanTest, RejectsNonPartitionableConjunctsAsResidual) {
  auto [left, right] = MakeSkewedPair();
  auto schema = MakeProductSchema(left, right).value();
  // Uncertain = uncertain, same-side equality, non-equality theta, and
  // attribute-vs-literal must all stay residual.
  PredicatePtr pred =
      And({Theta(ThetaOperand::Attr("L.u"), ThetaOp::kEq,
                 ThetaOperand::Attr("R.u")),
           Theta(ThetaOperand::Attr("L.id"), ThetaOp::kEq,
                 ThetaOperand::Attr("L.grp")),
           Theta(ThetaOperand::Attr("L.grp"), ThetaOp::kLe,
                 ThetaOperand::Attr("R.grp")),
           Theta(ThetaOperand::Attr("L.grp"), ThetaOp::kEq,
                 ThetaOperand::LitValue(Value("g0")))});
  auto plan = AnalyzeJoinPredicate(pred, *schema, OperandCounts(left, right));
  ASSERT_TRUE(plan.status.ok()) << plan.status;
  EXPECT_TRUE(plan.edges.empty());
  ASSERT_NE(plan.ResidualPredicate(), nullptr);
}

TEST(JoinPlanTest, UnknownAttributeFailsAtPlanTime) {
  auto [left, right] = MakeSkewedPair();
  auto schema = MakeProductSchema(left, right).value();
  PredicatePtr pred = Theta(ThetaOperand::Attr("L.nope"), ThetaOp::kEq,
                            ThetaOperand::Attr("R.grp"));
  auto plan = AnalyzeJoinPredicate(pred, *schema, OperandCounts(left, right));
  EXPECT_EQ(plan.status.code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Differential: hash join vs Select-over-Product

TEST(HashJoinDifferentialTest, KeyEquiJoinBitIdentical) {
  auto [left, right] = MakeKeyedPair(96, 0.5);
  PredicatePtr pred = Theta(ThetaOperand::Attr("L.key"), ThetaOp::kEq,
                            ThetaOperand::Attr("R.key"));
  ExpectJoinMatchesReference(left, right, pred, MembershipThreshold(),
                             "unique-key equi-join");
}

TEST(HashJoinDifferentialTest, SkewedManyToManyKeys) {
  auto [left, right] = MakeSkewedPair();
  PredicatePtr pred = Theta(ThetaOperand::Attr("L.grp"), ThetaOp::kEq,
                            ThetaOperand::Attr("R.grp"));
  ExpectJoinMatchesReference(left, right, pred, MembershipThreshold(),
                             "skewed grp join");
}

TEST(HashJoinDifferentialTest, ResidualPredicatesAndThresholds) {
  auto [left, right] = MakeSkewedPair();
  const std::vector<PredicatePtr> residuals = {
      IsSym("L.u", {"a", "b"}),
      Theta(ThetaOperand::Attr("L.u"), ThetaOp::kLe,
            ThetaOperand::Attr("R.u")),
      Theta(ThetaOperand::Attr("L.u"), ThetaOp::kLe,
            ThetaOperand::Attr("R.u"), ThetaSemantics::kForallForall),
      Theta(ThetaOperand::Attr("L.u"), ThetaOp::kEq,
            ThetaOperand::Attr("R.u")),
  };
  const std::vector<MembershipThreshold> thresholds = {
      MembershipThreshold(), MembershipThreshold::SnGreater(0.1),
      MembershipThreshold::SpAtLeast(0.7)};
  for (size_t ri = 0; ri < residuals.size(); ++ri) {
    for (size_t ti = 0; ti < thresholds.size(); ++ti) {
      PredicatePtr pred = And(Theta(ThetaOperand::Attr("L.grp"), ThetaOp::kEq,
                                    ThetaOperand::Attr("R.grp")),
                              residuals[ri]);
      ExpectJoinMatchesReference(
          left, right, pred, thresholds[ti],
          "residual " + std::to_string(ri) + " threshold " +
              std::to_string(ti));
    }
  }
}

TEST(HashJoinDifferentialTest, EmptyMatchSets) {
  // Overlap 0: every probe misses the table.
  auto [left, right] = MakeKeyedPair(40, 0.0);
  PredicatePtr pred = Theta(ThetaOperand::Attr("L.key"), ThetaOp::kEq,
                            ThetaOperand::Attr("R.key"));
  auto joined = Join(left, right, pred);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->size(), 0u);
  ExpectJoinMatchesReference(left, right, pred, MembershipThreshold(),
                             "empty-match join");
}

TEST(HashJoinDifferentialTest, EmptyOperands) {
  auto [left, right] = MakeKeyedPair(12, 0.5);
  ExtendedRelation empty("E", left.schema());
  empty.set_name("R");  // keep product attribute qualification stable
  PredicatePtr pred = Theta(ThetaOperand::Attr("L.key"), ThetaOp::kEq,
                            ThetaOperand::Attr("R.key"));
  auto joined = Join(left, empty, pred);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->size(), 0u);
}

TEST(HashJoinDifferentialTest, FallbackWithoutEquiConjunct) {
  auto [left, right] = MakeSkewedPair();
  PredicatePtr pred = Theta(ThetaOperand::Attr("L.grp"), ThetaOp::kLt,
                            ThetaOperand::Attr("R.grp"));
  ExpectJoinMatchesReference(left, right, pred, MembershipThreshold(),
                             "non-equi fallback");
}

TEST(HashJoinDifferentialTest, MultiKeyEquiJoin) {
  auto [left, right] = MakeSkewedPair();
  PredicatePtr pred = And(Theta(ThetaOperand::Attr("L.grp"), ThetaOp::kEq,
                                ThetaOperand::Attr("R.grp")),
                          Theta(ThetaOperand::Attr("L.id"), ThetaOp::kEq,
                                ThetaOperand::Attr("R.id")));
  // id spaces are disjoint ("lN" vs "rN"), so the two-key join is empty —
  // and must agree with the reference on that.
  auto joined = Join(left, right, pred);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->size(), 0u);
  ExpectJoinMatchesReference(left, right, pred, MembershipThreshold(),
                             "two-key join");
}

TEST(HashJoinDifferentialTest, BadIsConstantFailsLikeReference) {
  auto [left, right] = MakeSkewedPair();
  PredicatePtr pred = And(Theta(ThetaOperand::Attr("L.grp"), ThetaOp::kEq,
                                ThetaOperand::Attr("R.grp")),
                          IsSym("L.u", {"not-in-frame"}));
  ASSERT_FALSE(Join(left, right, pred).ok());
  ExpectJoinMatchesReference(left, right, pred, MembershipThreshold(),
                             "bad IS constant");
}

TEST(HashJoinDifferentialTest, CappedArenaReservationOnHighMatchRateJoin) {
  // Pathological match rate: every left row joins every right row on a
  // constant definite attribute, so the splice path's focal-span arena
  // *bound* (surviving pairs x dense average span) crosses the 2^20
  // reservation cap — the arena must be reserved capped and grown, and
  // the result must still equal the reference in every mode.
  Rng rng(20260729);
  auto filter_dom = Domain::MakeSymbolic(
      "filt8", {"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}).value();
  std::vector<std::string> dense_symbols;
  for (int i = 0; i < 17; ++i) dense_symbols.push_back("w" + std::to_string(i));
  auto dense_dom = Domain::MakeSymbolic("dense17", dense_symbols).value();
  auto schema = RelationSchema::Make(
                    {AttributeDef::Key("id"), AttributeDef::Definite("grp"),
                     AttributeDef::Uncertain("f", filter_dom),
                     AttributeDef::Uncertain("dense", dense_dom)})
                    .value();
  auto make = [&](const std::string& name, size_t rows) {
    ExtendedRelation rel(name, schema);
    for (size_t i = 0; i < rows; ++i) {
      MassFunction dense(17);
      std::vector<double> weights(100);
      double total = 0.0;
      for (double& w : weights) {
        w = 0.05 + rng.NextDouble();
        total += w;
      }
      for (double w : weights) {
        ValueSet set(17);
        const size_t members = 1 + rng.Below(6);
        for (size_t e = 0; e < members; ++e) set.Set(rng.Below(17));
        EXPECT_TRUE(dense.Add(set, w / total).ok());
      }
      ExtendedTuple t;
      t.cells = {Value(static_cast<int64_t>(i)), Value(int64_t{1}),
                 Cell(EvidenceSet::MakeTrusted(
                     filter_dom, MassFunction::Definite(8, rng.Below(8)))),
                 Cell(EvidenceSet::MakeTrusted(dense_dom, std::move(dense)))};
      EXPECT_TRUE(rel.Insert(std::move(t)).ok());
    }
    return rel;
  };
  ExtendedRelation left = make("L", 260);
  ExtendedRelation right = make("R", 1100);
  // 260 x 1100 = 286k matched pairs; the residual keeps ~1/16 of them,
  // each carrying two ~90-focal dense spans — bound >> 2^20 entries.
  PredicatePtr pred =
      And({Theta(ThetaOperand::Attr("L.grp"), ThetaOp::kEq,
                 ThetaOperand::Attr("R.grp")),
           IsSym("L.f", {"v0", "v1"}), IsSym("R.f", {"v0", "v1"})});
  auto joined = Join(left, right, pred);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->rows_materialized(), 0u);
  EXPECT_GT(joined->size(), 10000u);
  ExpectJoinMatchesReference(left, right, pred, MembershipThreshold(),
                             "high-match-rate join");
}

TEST(HashJoinDifferentialTest, RowOrderIsLeftMajorForEitherBuildSide) {
  // Skewed many-to-many keys, a residual and listed rows on one side:
  // both build sides and the reference list the pairs in the same
  // (left-major) order.
  auto [left, right] = MakeSkewedPair();
  const SchemaPtr schema = MakeProductSchema(left, right).value();
  const PredicatePtr pred =
      And(Theta(ThetaOperand::Attr("L.grp"), ThetaOp::kEq,
                ThetaOperand::Attr("R.grp")),
          IsSym("R.u", {"a", "c"}));
  std::vector<uint32_t> listed;
  for (uint32_t r = 0; r < right.size(); r += 2) listed.push_back(r);
  ExtendedRelation right_subset("R", right.schema());
  for (uint32_t r : listed) {
    ASSERT_TRUE(right_subset.Insert(right.row(r)).ok());
  }
  const auto expected =
      reference::Join(left, right_subset, pred, MembershipThreshold());
  for (JoinBuildSide side : {JoinBuildSide::kLeft, JoinBuildSide::kRight,
                             JoinBuildSide::kAuto}) {
    const auto got = JoinWithProductSchema(left, right, pred,
                                           MembershipThreshold(), schema,
                                           side, nullptr, &listed);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_GT(got->size(), 0u);
    EXPECT_EQ(reference::DiffInOrder(expected, got), "")
        << "build side " << static_cast<int>(side);
  }
}

// ---------------------------------------------------------------------------
// n-way join

/// A 3-relation star whose match sets span several morsels: fact F
/// (900 rows) with foreign keys into D1 and D2 (24 rows each) and a
/// packed uncertain attribute. Memberships vary per row so every F_TM factor shows in
/// the bits.
struct Star {
  ExtendedRelation d1, d2, f;
};

Star MakeStar() {
  DomainPtr dom =
      Domain::MakeSymbolic("star_dom", {"v0", "v1", "v2", "v3"}).value();
  Rng rng(4242);
  auto dim = [&](const std::string& name, const std::string& key,
                 const std::string& attr, int64_t modulus) {
    ExtendedRelation rel(name, RelationSchema::Make(
                                   {AttributeDef::Key(key),
                                    AttributeDef::Definite(attr)})
                                   .value());
    for (int64_t i = 0; i < 24; ++i) {
      ExtendedTuple t;
      t.cells = {Value(i), Value(i % modulus)};
      t.membership = SupportPair(0.5 + 0.5 * rng.NextDouble(), 1.0);
      EXPECT_TRUE(rel.Insert(std::move(t)).ok());
    }
    return rel;
  };
  Star star{dim("D1", "d1k", "w1", 6), dim("D2", "d2k", "sel", 4),
            ExtendedRelation(
                "F", RelationSchema::Make({AttributeDef::Key("fk"),
                                           AttributeDef::Definite("d1key"),
                                           AttributeDef::Definite("d2key"),
                                           AttributeDef::Uncertain("fu", dom)})
                         .value())};
  for (int64_t i = 0; i < 900; ++i) {
    MassFunction m(4);
    ValueSet a(4), b(4);
    a.Set(rng.Below(4));
    b.Set(rng.Below(4));
    b.Set(rng.Below(4));
    EXPECT_TRUE(m.Add(a, 0.625).ok());
    EXPECT_TRUE(m.Add(b, 0.375).ok());
    ExtendedTuple t;
    t.cells = {Value(i), Value(i % 24), Value((i * 7 + 3) % 24),
               Cell(EvidenceSet::MakeTrusted(dom, std::move(m)))};
    t.membership = SupportPair(0.25 + 0.75 * rng.NextDouble(), 1.0);
    EXPECT_TRUE(star.f.Insert(std::move(t)).ok());
  }
  return star;
}

TEST(MultiwayJoinTest, StarIsBitIdenticalAcrossThreadsAndJoinOrders) {
  const Star star = MakeStar();
  const std::vector<const ExtendedRelation*> operands = {&star.d1, &star.d2,
                                                         &star.f};
  const SchemaPtr schema = MakeMultiwayProductSchema(operands).value();
  // Two edges, a cross-operand residual (w1 < sel, checked at the step
  // that places the later dimension) and an evidence residual on F.
  const PredicatePtr pred =
      And({Theta(ThetaOperand::Attr("d1key"), ThetaOp::kEq,
                 ThetaOperand::Attr("d1k")),
           Theta(ThetaOperand::Attr("d2key"), ThetaOp::kEq,
                 ThetaOperand::Attr("d2k")),
           Theta(ThetaOperand::Attr("w1"), ThetaOp::kLt,
                 ThetaOperand::Attr("sel")),
           IsSym("fu", {"v0", "v1", "v2"})});
  const MembershipThreshold threshold = MembershipThreshold::SnGreater(0.05);
  const auto expected =
      reference::MultiwayJoin(operands, schema, pred, threshold);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_GT(expected->size(), 256u);
  const std::vector<std::vector<size_t>> orders = {
      {}, {2, 0, 1}, {0, 2, 1}, {1, 2, 0}, {2, 1, 0}};
  for (size_t threads : {size_t{1}, size_t{7}}) {
    ScopedMaxThreads cap(threads);
    for (const std::vector<size_t>& order : orders) {
      const auto got =
          MultiwayJoinProduct(operands, schema, pred, threshold, order);
      EXPECT_EQ(reference::DiffInOrder(expected, got), "")
          << "threads " << threads << " order size " << order.size()
          << (order.empty() ? 0 : order[0]);
    }
    // The pure product too (a cross step per operand).
    const std::vector<const ExtendedRelation*> small = {&star.d1, &star.d2};
    const SchemaPtr small_schema = MakeMultiwayProductSchema(small).value();
    EXPECT_EQ(reference::DiffInOrder(
                  reference::MultiwayJoin(small, small_schema, nullptr),
                  MultiwayJoinProduct(small, small_schema, nullptr,
                                      MembershipThreshold(), {1, 0})),
              "")
        << "threads " << threads;
  }
}

TEST(MultiwayJoinTest, RowIdGuardFailsCleanlyForEveryOperand) {
  // An operand past the 2^32-1 row ids the executor addresses fails with
  // OutOfRange naming it; the guard is driven through its fault site,
  // since no in-memory relation gets that large.
  const Star star = MakeStar();
  const std::vector<const ExtendedRelation*> operands = {&star.d1, &star.d2,
                                                         &star.f};
  const SchemaPtr schema = MakeMultiwayProductSchema(operands).value();
  const PredicatePtr pred = Theta(ThetaOperand::Attr("d1key"), ThetaOp::kEq,
                                  ThetaOperand::Attr("d1k"));
  auto expect_guard = [](const Result<ExtendedRelation>& got,
                         const std::string& name) {
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(got.status().message(),
              "relation '" + name +
                  "' exceeds the executor's 2^32-1 row limit");
  };
  // Count-only: every operand is checked once per call.
  fault::Arm(fault::Site::kRowIdRange, 0);
  ASSERT_TRUE(MultiwayJoinProduct(operands, schema, pred,
                                  MembershipThreshold(), {2, 0, 1})
                  .ok());
  EXPECT_EQ(fault::Hits(), 3u);
  for (size_t k = 0; k < operands.size(); ++k) {
    fault::Arm(fault::Site::kRowIdRange, k + 1);
    expect_guard(MultiwayJoinProduct(operands, schema, pred,
                                     MembershipThreshold(), {2, 0, 1}),
                 operands[k]->name());
  }
  const PredicatePtr binary = Theta(ThetaOperand::Attr("d1k"), ThetaOp::kEq,
                                    ThetaOperand::Attr("d2k"));
  for (size_t k = 0; k < 2; ++k) {
    fault::Arm(fault::Site::kRowIdRange, k + 1);
    expect_guard(Join(star.d1, star.d2, binary), k == 0 ? "D1" : "D2");
    fault::Arm(fault::Site::kRowIdRange, k + 1);
    expect_guard(Product(star.d1, star.d2), k == 0 ? "D1" : "D2");
  }
  fault::Disarm();
}

// ---------------------------------------------------------------------------
// Parallel executor

TEST(ParallelExecutorTest, ZeroItemsNeverInvokes) {
  bool called = false;
  ParallelForMorsels(0, 16, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

// ---------------------------------------------------------------------------
// Threaded vs serial determinism

TEST(ParallelDeterminismTest, JoinIdenticalAcrossThreadCounts) {
  auto [left, right] = MakeKeyedPair(600, 0.7);
  PredicatePtr pred = And(Theta(ThetaOperand::Attr("L.key"), ThetaOp::kEq,
                                ThetaOperand::Attr("R.key")),
                          IsSym("L.unc0", {"v0", "v1", "v2"}));
  std::string serial, threaded;
  {
    ScopedMaxThreads cap(1);
    serial = Join(left, right, pred).value().ToString(15);
  }
  {
    ScopedMaxThreads cap(7);
    threaded = Join(left, right, pred).value().ToString(15);
  }
  EXPECT_EQ(serial, threaded);
}

TEST(ParallelDeterminismTest, UnionIdenticalAcrossThreadCounts) {
  WorkloadGenerator gen(41);
  SourcePairOptions options;
  options.base.num_tuples = 800;
  options.base.num_uncertain = 2;
  options.base.domain_size = 9;
  options.key_overlap = 0.6;
  options.conflict_rate = 0.1;
  auto [a, b] = gen.MakeSourcePair(options).value();
  UnionOptions uopt;
  uopt.on_total_conflict = TotalConflictPolicy::kVacuous;
  std::string serial, threaded;
  {
    ScopedMaxThreads cap(1);
    serial = Union(a, b, uopt).value().ToString(15);
  }
  {
    ScopedMaxThreads cap(7);
    threaded = Union(a, b, uopt).value().ToString(15);
  }
  EXPECT_EQ(serial, threaded);
}

TEST(ParallelDeterminismTest, MergeTuplesIdenticalAcrossThreadCounts) {
  WorkloadGenerator gen(43);
  SourcePairOptions options;
  options.base.num_tuples = 700;
  options.base.num_uncertain = 2;
  options.base.domain_size = 8;
  options.key_overlap = 0.5;
  options.conflict_rate = 0.0;
  auto [a, b] = gen.MakeSourcePair(options).value();
  auto matching = MatchByKey(a, b);
  ASSERT_TRUE(matching.ok()) << matching.status();
  std::string serial, threaded;
  {
    ScopedMaxThreads cap(1);
    serial = MergeTuples(a, b, *matching).value().ToString(15);
  }
  {
    ScopedMaxThreads cap(7);
    threaded = MergeTuples(a, b, *matching).value().ToString(15);
  }
  EXPECT_EQ(serial, threaded);
}

TEST(ParallelDeterminismTest, UnionErrorIdenticalAcrossThreadCounts) {
  // Conflicting sources under the kError policy must report the same
  // (first-row) total-conflict error for any thread count.
  WorkloadGenerator gen(47);
  SourcePairOptions options;
  options.base.num_tuples = 600;
  options.base.num_uncertain = 1;
  options.base.domain_size = 8;
  options.base.vacuous_fraction = 0.0;
  options.base.definite_fraction = 1.0;  // definite vs definite conflicts
  options.key_overlap = 1.0;
  options.conflict_rate = 1.0;
  auto [a, b] = gen.MakeSourcePair(options).value();
  Status serial, threaded;
  {
    ScopedMaxThreads cap(1);
    serial = Union(a, b).status();
  }
  {
    ScopedMaxThreads cap(7);
    threaded = Union(a, b).status();
  }
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.code(), threaded.code());
  EXPECT_EQ(serial.message(), threaded.message());
}

}  // namespace
}  // namespace evident
