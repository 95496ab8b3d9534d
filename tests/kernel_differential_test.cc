// Differential property tests for the evidence kernel's two conjunctive
// backends (pairwise vs fast Möbius transform) and for the ValueSet
// small-buffer representation at the inline/multi-word boundary. The
// two backends must be interchangeable: every combination rule has to
// produce the same focal structure with masses within 1e-12 no matter
// which kernel evaluated the product.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/column_store.h"
#include "core/operations.h"
#include "core/parallel.h"
#include "ds/combination.h"
#include "integration/tuple_merger.h"
#include "reference/reference.h"
#include "workload/generator.h"

namespace evident {
namespace {

constexpr double kDiffEps = 1e-12;

/// A random valid mass function: `focals` random non-empty subsets (with
/// duplicates merging) whose masses sum to 1.
MassFunction RandomMass(Rng* rng, size_t universe, size_t focals) {
  MassFunction m(universe);
  std::vector<double> weights(focals);
  double total = 0.0;
  for (double& w : weights) {
    w = 0.05 + rng->NextDouble();
    total += w;
  }
  for (size_t f = 0; f < focals; ++f) {
    ValueSet set(universe);
    const size_t members = 1 + rng->Below(universe);
    for (size_t e = 0; e < members; ++e) set.Set(rng->Below(universe));
    EXPECT_TRUE(m.Add(set, weights[f] / total).ok());
  }
  return m;
}

TEST(KernelDifferentialTest, FmtMatchesPairwiseAcrossRulesAndFrames) {
  Rng rng(2024);
  const CombinationRule rules[] = {CombinationRule::kDempster,
                                   CombinationRule::kTBM,
                                   CombinationRule::kYager};
  for (size_t universe = 1; universe <= kFmtMaxUniverse; ++universe) {
    for (int trial = 0; trial < 8; ++trial) {
      MassFunction a = RandomMass(&rng, universe, 1 + rng.Below(12));
      MassFunction b = RandomMass(&rng, universe, 1 + rng.Below(12));
      for (CombinationRule rule : rules) {
        double kappa_pair = -1.0, kappa_fmt = -1.0;
        auto pair =
            Combine(a, b, rule, &kappa_pair, CombineBackend::kPairwise);
        auto fmt = Combine(a, b, rule, &kappa_fmt, CombineBackend::kFmt);
        ASSERT_EQ(pair.ok(), fmt.ok())
            << CombinationRuleToString(rule) << " universe " << universe;
        EXPECT_NEAR(kappa_pair, kappa_fmt, kDiffEps);
        if (!pair.ok()) continue;
        EXPECT_TRUE(pair->ApproxEquals(*fmt, kDiffEps))
            << CombinationRuleToString(rule) << " universe " << universe
            << "\npairwise: " << pair->ToString()
            << "\nfmt:      " << fmt->ToString();
      }
    }
  }
}

TEST(KernelDifferentialTest, FmtMatchesPairwiseOnTotalConflict) {
  // Disjoint definite evidence: kappa == 1 on both backends.
  MassFunction a = MassFunction::Definite(6, 0);
  MassFunction b = MassFunction::Definite(6, 3);
  for (CombineBackend backend :
       {CombineBackend::kPairwise, CombineBackend::kFmt}) {
    double kappa = 0.0;
    auto combined = CombineDempster(a, b, &kappa, backend);
    EXPECT_FALSE(combined.ok());
    EXPECT_EQ(combined.status().code(), StatusCode::kTotalConflict);
    EXPECT_NEAR(kappa, 1.0, kDiffEps);
  }
}

TEST(KernelDifferentialTest, FmtKeepsGenuineTinyMassesUnderDeepConflict) {
  // Nearly total conflict: the surviving non-empty masses are ~5e-14,
  // below the absolute transform-noise floor. The floor is relative to
  // the surviving mass, so the FMT backend must keep these focal
  // elements exactly like the pairwise backend does.
  const double d = 5e-14;
  MassFunction a(4), b(4);
  ASSERT_TRUE(a.Add(ValueSet::Singleton(4, 0), 1.0 - d).ok());
  ASSERT_TRUE(a.Add(ValueSet::Singleton(4, 1), d).ok());
  ASSERT_TRUE(b.Add(ValueSet::Singleton(4, 0), d).ok());
  ASSERT_TRUE(b.Add(ValueSet::Singleton(4, 1), 1.0 - d).ok());
  auto pair = CombineTBM(a, b, nullptr, CombineBackend::kPairwise);
  auto fmt = CombineTBM(a, b, nullptr, CombineBackend::kFmt);
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(fmt.ok());
  EXPECT_EQ(fmt->FocalCount(), pair->FocalCount());
  EXPECT_GT(fmt->MassOf(ValueSet::Singleton(4, 0)), 0.0);
  EXPECT_GT(fmt->MassOf(ValueSet::Singleton(4, 1)), 0.0);
  EXPECT_TRUE(fmt->ApproxEquals(*pair, kDiffEps));
}

TEST(KernelDifferentialTest, CombineAllMassesMatchesPairwiseFold) {
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const size_t universe = 4 + rng.Below(7);
    std::vector<MassFunction> sources;
    // Large focal counts force the k-way kernel through its dense
    // commonality-space path; the reference fold stays pairwise.
    for (int s = 0; s < 4; ++s) {
      sources.push_back(RandomMass(&rng, universe, 24 + rng.Below(24)));
    }
    for (CombinationRule rule :
         {CombinationRule::kDempster, CombinationRule::kTBM}) {
      MassFunction reference = sources.front();
      double surviving = 1.0;
      for (size_t i = 1; i < sources.size(); ++i) {
        double step_kappa = 0.0;
        auto step = Combine(reference, sources[i], rule, &step_kappa,
                            CombineBackend::kPairwise);
        ASSERT_TRUE(step.ok()) << step.status().ToString();
        reference = std::move(step).value();
        surviving *= 1.0 - step_kappa;
      }
      double kappa = 0.0;
      auto kway = CombineAllMasses(sources, rule, &kappa);
      ASSERT_TRUE(kway.ok()) << kway.status().ToString();
      EXPECT_TRUE(kway->ApproxEquals(reference, kDiffEps))
          << CombinationRuleToString(rule) << " universe " << universe;
      const double expected_kappa = rule == CombinationRule::kTBM
                                        ? reference.EmptyMass()
                                        : 1.0 - surviving;
      EXPECT_NEAR(kappa, expected_kappa, kDiffEps);
    }
  }
}

TEST(KernelDifferentialTest, CombineMembershipMatchesGenericEngine) {
  // The closed forms in CombineMembership must agree with building the
  // boolean-frame mass functions and running the generic kernel, the way
  // the seed implementation did.
  auto to_mass = [](const SupportPair& p) {
    MassFunction mf(2);
    if (p.TrueMass() > 0.0) {
      (void)mf.Add(ValueSet::Singleton(2, 0), p.TrueMass());
    }
    if (p.FalseMass() > 0.0) {
      (void)mf.Add(ValueSet::Singleton(2, 1), p.FalseMass());
    }
    if (p.UnknownMass() > 0.0) (void)mf.Add(ValueSet::Full(2), p.UnknownMass());
    return mf;
  };
  Rng rng(99);
  for (int trial = 0; trial < 64; ++trial) {
    const double sn1 = rng.NextDouble(), sp1 = sn1 + rng.NextDouble() * (1 - sn1);
    const double sn2 = rng.NextDouble(), sp2 = sn2 + rng.NextDouble() * (1 - sn2);
    const SupportPair a{sn1, sp1}, b{sn2, sp2};
    for (CombinationRule rule :
         {CombinationRule::kDempster, CombinationRule::kTBM,
          CombinationRule::kYager, CombinationRule::kMixing}) {
      auto closed = CombineMembership(a, b, rule);
      auto generic = Combine(to_mass(a), to_mass(b), rule);
      ASSERT_EQ(closed.ok(), generic.ok());
      if (!closed.ok()) continue;
      MassFunction combined = std::move(generic).value();
      if (combined.EmptyMass() > 0.0) ASSERT_TRUE(combined.Normalize().ok());
      const SupportPair expected{
          combined.MassOf(ValueSet::Singleton(2, 0)),
          1.0 - combined.MassOf(ValueSet::Singleton(2, 1))};
      EXPECT_TRUE(closed->ApproxEquals(expected, kDiffEps))
          << CombinationRuleToString(rule) << " " << closed->ToString()
          << " vs " << expected.ToString();
    }
  }
}

/// Reference set implementation for the SBO boundary checks.
std::set<size_t> ReferenceIndices(Rng* rng, size_t universe, size_t members) {
  std::set<size_t> out;
  for (size_t i = 0; i < members; ++i) out.insert(rng->Below(universe));
  return out;
}

TEST(ValueSetBoundaryTest, InlineAndMultiWordSemanticsAgree) {
  // The same abstract subsets must behave identically whether the
  // universe is inline (<= 64) or spills to the word vector (>= 65).
  Rng rng(512);
  for (size_t universe : {63u, 64u, 65u, 66u, 128u}) {
    for (int trial = 0; trial < 32; ++trial) {
      const std::set<size_t> ia = ReferenceIndices(&rng, universe, 8);
      const std::set<size_t> ib = ReferenceIndices(&rng, universe, 8);
      ValueSet a(universe), b(universe);
      for (size_t i : ia) a.Set(i);
      for (size_t i : ib) b.Set(i);

      EXPECT_EQ(a.Count(), ia.size());
      std::vector<size_t> expected_indices(ia.begin(), ia.end());
      EXPECT_EQ(a.Indices(), expected_indices);

      std::set<size_t> expect_and, expect_or, expect_diff;
      for (size_t i : ia) {
        if (ib.count(i)) expect_and.insert(i);
        if (!ib.count(i)) expect_diff.insert(i);
        expect_or.insert(i);
      }
      for (size_t i : ib) expect_or.insert(i);

      EXPECT_EQ(a.Intersect(b).Indices(),
                std::vector<size_t>(expect_and.begin(), expect_and.end()));
      EXPECT_EQ(a.Union(b).Indices(),
                std::vector<size_t>(expect_or.begin(), expect_or.end()));
      EXPECT_EQ(a.Difference(b).Indices(),
                std::vector<size_t>(expect_diff.begin(), expect_diff.end()));
      EXPECT_EQ(a.Intersects(b), !expect_and.empty());
      EXPECT_EQ(a.IsSubsetOf(b), expect_diff.empty());
      EXPECT_EQ(a.Complement().Count(), universe - ia.size());
      EXPECT_TRUE(a.Complement().Intersect(a).IsEmpty());
      EXPECT_TRUE(a.Complement().Union(a).IsFull());
    }
    // Boundary invariants independent of the trial sets.
    EXPECT_TRUE(ValueSet::Full(universe).IsFull());
    EXPECT_EQ(ValueSet::Full(universe).Count(), universe);
    EXPECT_TRUE(ValueSet::Full(universe).Complement().IsEmpty());
    EXPECT_EQ(ValueSet(universe).IsInline(), universe <= 64);
  }
}

TEST(ValueSetBoundaryTest, InlineWordRoundTripAt64) {
  // Bit 63 is the last inline bit; exercise it explicitly.
  ValueSet s = ValueSet::Singleton(64, 63);
  EXPECT_TRUE(s.IsInline());
  EXPECT_EQ(s.InlineWord(), uint64_t{1} << 63);
  EXPECT_EQ(ValueSet::FromWord(64, s.InlineWord()), s);
  EXPECT_EQ(ValueSet::FromWord(64, ~uint64_t{0}), ValueSet::Full(64));

  // One more value forces the spill representation with identical
  // observable behavior for the shared indices.
  ValueSet t = ValueSet::Singleton(65, 63);
  EXPECT_FALSE(t.IsInline());
  EXPECT_EQ(t.Indices(), std::vector<size_t>{63});
  ValueSet u = ValueSet::Singleton(65, 64);
  EXPECT_EQ(u.Indices(), std::vector<size_t>{64});
  EXPECT_FALSE(t.Intersects(u));
  EXPECT_TRUE(t.Union(u).Count() == 2);
}

// ---------------------------------------------------------------------------
// Operator differentials: every operator must produce *bit-identical*
// relations — same row order, same focal structures, exactly equal
// masses and memberships — and identical first errors under every
// kernel/thread mode, and must agree with the naive reference evaluator
// (tests/reference) keyed by key.

/// Runs `op` under {scalar, SIMD} x {threads 1, 7} and asserts
/// bit-identical results (strict row order) and identical statuses
/// (code and message) across the modes, then asserts the first mode's
/// outcome equals `reference_op`'s keyed by key.
void ExpectModesAgreeWithReference(
    const std::function<Result<ExtendedRelation>()>& op,
    const std::function<Result<ExtendedRelation>()>& reference_op,
    const std::string& what) {
  std::vector<Result<ExtendedRelation>> outcomes;
  for (bool simd : {false, true}) {
    for (size_t threads : {size_t{1}, size_t{7}}) {
      SetBatchSimdEnabled(simd);
      SetParallelMaxThreads(threads);
      outcomes.push_back(op());
    }
  }
  SetBatchSimdEnabled(true);
  SetParallelMaxThreads(0);
  for (size_t m = 1; m < outcomes.size(); ++m) {
    EXPECT_EQ(reference::DiffInOrder(outcomes[0], outcomes[m]), "")
        << what << " mode " << m;
  }
  EXPECT_EQ(reference::DiffByKey(outcomes[0], reference_op()), "") << what;
}

std::pair<ExtendedRelation, ExtendedRelation> MakeSources(uint64_t seed,
                                                          size_t tuples,
                                                          double conflict) {
  WorkloadGenerator gen(seed);
  SourcePairOptions options;
  options.base.num_tuples = tuples;
  options.base.num_definite = 2;
  options.base.num_uncertain = 2;
  options.base.domain_size = 10;
  options.base.max_focals = 5;
  options.key_overlap = 0.6;
  options.conflict_rate = conflict;
  auto made = gen.MakeSourcePair(options);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return std::move(made).value();
}

TEST(ColumnarDifferentialTest, ColumnStoreRoundTripIsLossless) {
  auto [a, b] = MakeSources(42, 80, 0.2);
  ColumnStore store = ColumnStore::FromRelation(a);
  auto back = store.ToRelation();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(reference::DiffInOrder(a, back), "") << "column store round trip";
  // The adopted (columnar-mode) relation materializes the same rows.
  ExtendedRelation adopted =
      ExtendedRelation::AdoptColumns(ColumnStore::FromRelation(a));
  EXPECT_EQ(reference::DiffInOrder(a, adopted), "") << "adopted column image";
  // And serves key probes from its lazily-built index.
  for (size_t i = 0; i < a.size(); ++i) {
    auto found = adopted.FindByKey(a.KeyOf(a.row(i)));
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*found, i);
  }
}

TEST(ColumnarDifferentialTest, SelectMatchesReferenceInEveryMode) {
  auto [a, b] = MakeSources(7, 120, 0.0);
  (void)b;
  const ExtendedRelation input = a;
  const std::vector<PredicatePtr> predicates = {
      IsSym("unc0", {"v0", "v1", "v2"}),
      And(IsSym("unc0", {"v1", "v3"}), IsSym("unc1", {"v0"})),
      Theta(ThetaOperand::Attr("unc0"), ThetaOp::kEq,
            ThetaOperand::Attr("unc1")),
      Theta(ThetaOperand::Attr("def0"), ThetaOp::kEq,
            ThetaOperand::Attr("def1")),
      // Unknown attribute: every mode must report the identical error.
      IsSym("nope", {"v0"}),
  };
  for (size_t p = 0; p < predicates.size(); ++p) {
    ExpectModesAgreeWithReference(
        [&, p] { return Select(input, predicates[p]); },
        [&, p] { return reference::Select(input, predicates[p]); },
        "select predicate " + std::to_string(p));
  }
}

TEST(ColumnarDifferentialTest, UnionMatchesReferenceAcrossRulesAndPolicies) {
  for (double conflict : {0.0, 0.5}) {
    auto [a, b] = MakeSources(1000 + static_cast<uint64_t>(conflict * 10),
                              100, conflict);
    for (CombinationRule rule :
         {CombinationRule::kDempster, CombinationRule::kYager,
          CombinationRule::kMixing}) {
      for (TotalConflictPolicy policy :
           {TotalConflictPolicy::kError, TotalConflictPolicy::kSkipTuple,
            TotalConflictPolicy::kVacuous}) {
        UnionOptions options;
        options.rule = rule;
        options.on_total_conflict = policy;
        ExpectModesAgreeWithReference(
            [&] { return Union(a, b, options); },
            [&] { return reference::Union(a, b, options); },
            std::string("union rule ") + CombinationRuleToString(rule) +
                " policy " + std::to_string(static_cast<int>(policy)) +
                " conflict " + std::to_string(conflict));
      }
    }
  }
}

TEST(ColumnarDifferentialTest, JoinAndMergeTuplesMatchReference) {
  auto [a, b] = MakeSources(77, 90, 0.3);
  a.set_name("L");
  b.set_name("R");
  // Equi-join with an uncertain residual conjunct.
  PredicatePtr join_pred =
      And(Theta(ThetaOperand::Attr("L.key"), ThetaOp::kEq,
                ThetaOperand::Attr("R.key")),
          IsSym("L.unc0", {"v0", "v1", "v2", "v3"}));
  ExpectModesAgreeWithReference(
      [&] { return Join(a, b, join_pred); },
      [&] { return reference::Join(a, b, join_pred); },
      "hash join with residual");
  // MergeTuples via key matching (inherits Union's merge pass).
  auto matching = MatchByKey(a, b);
  ASSERT_TRUE(matching.ok()) << matching.status().ToString();
  UnionOptions options;
  options.on_total_conflict = TotalConflictPolicy::kVacuous;
  ExpectModesAgreeWithReference(
      [&] { return MergeTuples(a, b, *matching, options); },
      [&] { return reference::MergeTuples(a, b, *matching, options); },
      "merge tuples by key");
}

TEST(ColumnarDifferentialTest, PreferRightKeepsLeftCellOnCrossKindEquality) {
  // int 1 and real 1.0 compare equal (Value's cross-kind numeric rule),
  // so ApproxEquals cannot distinguish them — but the definition keeps
  // the *left* cell on equality, and the union build must too, or the
  // merged cell's kind flips under kPreferRight and kind-sensitive
  // consumers (serialization) see a real where the source had an int.
  auto schema = RelationSchema::Make({AttributeDef::Key("k"),
                                      AttributeDef::Definite("d")})
                    .value();
  ExtendedRelation a("A", schema), b("B", schema);
  ASSERT_TRUE(a.Insert(ExtendedTuple({Cell(Value("x")),
                                      Cell(Value(int64_t{1}))},
                                     SupportPair::Certain()))
                  .ok());
  ASSERT_TRUE(b.Insert(ExtendedTuple({Cell(Value("x")), Cell(Value(1.0))},
                                     SupportPair::Certain()))
                  .ok());
  UnionOptions options;
  options.on_definite_conflict = DefiniteConflictPolicy::kPreferRight;
  auto merged = Union(a, b, options);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->size(), 1u);
  EXPECT_TRUE(std::get<Value>(merged->row(0).cells[1]).is_int());
  // DiffByKey compares Value kinds too.
  EXPECT_EQ(reference::DiffByKey(merged, reference::Union(a, b, options)),
            "");
}

TEST(ColumnarDifferentialTest, FirstErrorIdenticalAcrossModesAndThreads) {
  auto [a, b] = MakeSources(555, 150, 0.6);
  UnionOptions options;  // kError policies
  ASSERT_FALSE(Union(a, b, options).ok());
  ExpectModesAgreeWithReference(
      [&] { return Union(a, b, options); },
      [&] { return reference::Union(a, b, options); }, "union first-error");
}

/// A relation with a 70-value uncertain attribute `w` (past the 64-value
/// inline word: stored boxed, and no predicate over it binds), a 6-value
/// uncertain attribute `u` and a definite join attribute `d`.
ExtendedRelation WideFrameRelation(const std::string& name, size_t rows,
                                   uint64_t seed) {
  std::vector<std::string> wide, narrow;
  for (int i = 0; i < 70; ++i) wide.push_back("v" + std::to_string(i));
  for (int i = 0; i < 6; ++i) narrow.push_back("u" + std::to_string(i));
  const DomainPtr wdom = Domain::MakeSymbolic("wide70", wide).value();
  const DomainPtr udom = Domain::MakeSymbolic("narrow6", narrow).value();
  const SchemaPtr schema =
      RelationSchema::Make({AttributeDef::Key("k"),
                            AttributeDef::Definite("d"),
                            AttributeDef::Uncertain("w", wdom),
                            AttributeDef::Uncertain("u", udom)})
          .value();
  Rng rng(seed);
  // Focal sets of 1-2 of the first ten values, so IS conditions keep
  // positive belief often enough to leave work for every operator.
  auto small_focals = [&rng] {
    MassFunction m(70);
    const size_t focals = 1 + rng.Below(3);
    for (size_t f = 0; f < focals; ++f) {
      ValueSet set(70);
      set.Set(rng.Below(10));
      if (rng.Chance(0.5)) set.Set(rng.Below(10));
      EXPECT_TRUE(m.Add(set, 1.0 / static_cast<double>(focals)).ok());
    }
    return m;
  };
  ExtendedRelation rel(name, schema);
  for (size_t i = 0; i < rows; ++i) {
    ExtendedTuple t;
    t.cells = {Value(static_cast<int64_t>(i)),
               Value(static_cast<int64_t>(rng.Below(6))),
               EvidenceSet::MakeTrusted(wdom, small_focals()),
               EvidenceSet::MakeTrusted(udom,
                                        RandomMass(&rng, 6, 1 + rng.Below(4)))};
    t.membership = SupportPair{0.25 + 0.5 * rng.NextDouble(), 1.0};
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  return rel;
}

TEST(ColumnarDifferentialTest, InterpretedPredicatesMatchReference) {
  // Predicates that do not bind — over a frame wider than 64 values, or
  // naming a constant outside the frame — are interpreted per row (per
  // matched pair in the join) on transient tuples. Sizes span several
  // 256-row morsels.
  const ExtendedRelation l = WideFrameRelation("L", 700, 1);
  const ExtendedRelation r = WideFrameRelation("R", 600, 2);
  const std::vector<PredicatePtr> selections = {
      IsSym("w", {"v1", "v3", "v5"}),
      And(IsSym("u", {"u0", "u1"}),
          Theta(ThetaOperand::Attr("w"), ThetaOp::kLe,
                ThetaOperand::LitValue(Value("v9")))),
      IsSym("u", {"u0", "not-in-frame"}),  // fails on the first row
  };
  for (size_t p = 0; p < selections.size(); ++p) {
    ExpectModesAgreeWithReference(
        [&, p] { return Select(l, selections[p]); },
        [&, p] { return reference::Select(l, selections[p]); },
        "interpreted select " + std::to_string(p));
  }
  const std::vector<PredicatePtr> conjuncts = {IsSym("w", {"v2", "v4"}),
                                               Is("d", {Value(int64_t{1})})};
  ExpectModesAgreeWithReference(
      [&] { return FilterPositiveSupport(l, conjuncts); },
      [&] { return reference::FilterPositiveSupport(l, conjuncts); },
      "interpreted prefilter");
  // Key equi-join on the definite attribute with a residual over the
  // wide frame: probed by key, the residual interpreted per pair.
  const PredicatePtr join_pred =
      And(Theta(ThetaOperand::Attr("L.d"), ThetaOp::kEq,
                ThetaOperand::Attr("R.d")),
          IsSym("R.w", {"v0", "v7", "v8"}));
  ExpectModesAgreeWithReference(
      [&] { return Join(l, r, join_pred); },
      [&] { return reference::Join(l, r, join_pred); },
      "interpreted join residual");
  // An unbindable multiway predicate prunes nothing: the full cross
  // product in FROM order, then selection.
  const ExtendedRelation a = WideFrameRelation("A", 9, 3);
  const ExtendedRelation b = WideFrameRelation("B", 7, 4);
  const ExtendedRelation c = WideFrameRelation("C", 8, 5);
  const std::vector<const ExtendedRelation*> operands = {&a, &b, &c};
  const SchemaPtr schema = MakeMultiwayProductSchema(operands).value();
  const PredicatePtr multi_pred =
      And({Theta(ThetaOperand::Attr("A.d"), ThetaOp::kEq,
                 ThetaOperand::Attr("B.d")),
           Theta(ThetaOperand::Attr("B.k"), ThetaOp::kEq,
                 ThetaOperand::Attr("C.d")),
           IsSym("C.w", {"v0", "v1", "v2", "v3"})});
  ExpectModesAgreeWithReference(
      [&] {
        return MultiwayJoinProduct(operands, schema, multi_pred,
                                   MembershipThreshold(), {2, 0, 1});
      },
      [&] { return reference::MultiwayJoin(operands, schema, multi_pred); },
      "interpreted multiway join");
  // The engine never builds an operand's row image, not even for
  // interpreted predicates.
  const ExtendedRelation lc =
      ExtendedRelation::AdoptColumns(ColumnStore::FromRelation(l));
  const ExtendedRelation rc =
      ExtendedRelation::AdoptColumns(ColumnStore::FromRelation(r));
  const auto selected = Select(lc, selections[0]);
  const auto filtered = FilterPositiveSupport(lc, conjuncts);
  const auto joined = Join(lc, rc, join_pred);
  ASSERT_TRUE(selected.ok() && filtered.ok() && joined.ok());
  EXPECT_GT(selected->size(), 0u);
  EXPECT_GT(filtered->size(), 0u);
  EXPECT_GT(joined->size(), 1000u);
  EXPECT_EQ(lc.rows_materialized(), 0u);
  EXPECT_EQ(rc.rows_materialized(), 0u);
}

// ---------------------------------------------------------------------------
// Batch kernel differentials: CombineColumnBatch against the row-store
// kernel pair by pair, and its SIMD dispatch against the scalar 4-lane
// fallback.

/// Packs `ms` as one evidence column.
void PackColumn(const std::vector<MassFunction>& ms,
                std::vector<uint64_t>* words, std::vector<double>* masses,
                std::vector<uint32_t>* offsets) {
  offsets->assign(1, 0);
  for (const MassFunction& m : ms) {
    for (const auto& [set, mass] : m.focals()) {
      words->push_back(set.InlineWord());
      masses->push_back(mass);
    }
    offsets->push_back(static_cast<uint32_t>(words->size()));
  }
}

TEST(ColumnarDifferentialTest, BatchCombineMatchesRowKernelExactly) {
  Rng rng(31337);
  const size_t universe = 8;
  const size_t n = 64;
  std::vector<MassFunction> lhs, rhs;
  for (size_t i = 0; i < n; ++i) {
    // Mix focal counts so the batch routes some pairs through the
    // pairwise kernel and others through the 4-lane lattice (24x24
    // focal products cross the kAuto threshold at universe 8).
    const size_t focals = i % 3 == 0 ? 24 + rng.Below(16) : 1 + rng.Below(5);
    lhs.push_back(RandomMass(&rng, universe, focals));
    rhs.push_back(RandomMass(&rng, universe, i % 4 == 0 ? 24 : 3));
  }
  std::vector<uint64_t> lw, rw;
  std::vector<double> lm, rm;
  std::vector<uint32_t> lo, ro;
  PackColumn(lhs, &lw, &lm, &lo);
  PackColumn(rhs, &rw, &rm, &ro);
  const FocalSpanColumn lcol{lw.data(), lm.data(), lo.data()};
  const FocalSpanColumn rcol{rw.data(), rm.data(), ro.data()};

  for (CombinationRule rule :
       {CombinationRule::kDempster, CombinationRule::kTBM,
        CombinationRule::kYager, CombinationRule::kMixing}) {
    BatchCombineResult batch;
    CombineColumnBatch(universe, rule, lcol, nullptr, rcol, nullptr, n,
                       &batch);
    ASSERT_EQ(batch.offsets.size(), n + 1);
    DomainPtr domain =
        Domain::MakeIntRange("frame", 0, static_cast<int64_t>(universe) - 1)
            .value();
    for (size_t i = 0; i < n; ++i) {
      auto reference = CombineEvidenceTrusted(
          EvidenceSet::MakeTrusted(domain, lhs[i]),
          EvidenceSet::MakeTrusted(domain, rhs[i]), rule);
      if (!reference.ok()) {
        ASSERT_EQ(reference.status().code(), StatusCode::kTotalConflict);
        EXPECT_TRUE(batch.total_conflict[i]) << "pair " << i;
        continue;
      }
      ASSERT_FALSE(batch.total_conflict[i]) << "pair " << i;
      const auto& focals = reference->mass().focals();
      const uint32_t first = batch.offsets[i];
      ASSERT_EQ(batch.offsets[i + 1] - first, focals.size()) << "pair " << i;
      for (size_t f = 0; f < focals.size(); ++f) {
        EXPECT_EQ(batch.words[first + f], focals[f].first.InlineWord())
            << "pair " << i << " focal " << f;
        EXPECT_EQ(batch.masses[first + f], focals[f].second)
            << "pair " << i << " focal " << f
            << " rule " << CombinationRuleToString(rule);
      }
    }
  }
}

TEST(ColumnarDifferentialTest, SimdLatticeMatchesScalarWithinBound) {
  Rng rng(90210);
  const size_t universe = 10;
  const size_t n = 37;  // exercises partial 4-lane groups
  std::vector<MassFunction> lhs, rhs;
  for (size_t i = 0; i < n; ++i) {
    // Dense focal sets force every pair through the lattice path.
    lhs.push_back(RandomMass(&rng, universe, 40 + rng.Below(24)));
    rhs.push_back(RandomMass(&rng, universe, 40 + rng.Below(24)));
  }
  std::vector<uint64_t> lw, rw;
  std::vector<double> lm, rm;
  std::vector<uint32_t> lo, ro;
  PackColumn(lhs, &lw, &lm, &lo);
  PackColumn(rhs, &rw, &rm, &ro);
  const FocalSpanColumn lcol{lw.data(), lm.data(), lo.data()};
  const FocalSpanColumn rcol{rw.data(), rm.data(), ro.data()};

  SetBatchSimdEnabled(false);
  ASSERT_FALSE(BatchSimdActive());
  BatchCombineResult scalar;
  CombineColumnBatch(universe, CombinationRule::kDempster, lcol, nullptr,
                     rcol, nullptr, n, &scalar);
  SetBatchSimdEnabled(true);
  // (BatchSimdActive() is true only on AVX2 builds running on AVX2
  // hardware; either way the results must agree.)
  BatchCombineResult simd;
  CombineColumnBatch(universe, CombinationRule::kDempster, lcol, nullptr,
                     rcol, nullptr, n, &simd);

  ASSERT_EQ(scalar.offsets, simd.offsets);
  ASSERT_EQ(scalar.total_conflict, simd.total_conflict);
  ASSERT_EQ(scalar.words, simd.words);
  for (size_t k = 0; k < scalar.masses.size(); ++k) {
    EXPECT_NEAR(scalar.masses[k], simd.masses[k], kDiffEps) << "term " << k;
  }
}

TEST(ValueSetBoundaryTest, OrderAndHashConsistentAcrossBoundary) {
  // Equal sets hash equal and order consistently on both sides of the
  // inline boundary; sorting a mixed population must be strict-weak.
  Rng rng(4096);
  for (size_t universe : {64u, 65u}) {
    std::vector<ValueSet> sets;
    for (int i = 0; i < 64; ++i) {
      ValueSet s(universe);
      const size_t members = 1 + rng.Below(6);
      for (size_t e = 0; e < members; ++e) s.Set(rng.Below(universe));
      sets.push_back(s);
    }
    std::sort(sets.begin(), sets.end());
    for (size_t i = 1; i < sets.size(); ++i) {
      EXPECT_FALSE(sets[i] < sets[i - 1]);
      if (sets[i] == sets[i - 1]) {
        EXPECT_EQ(sets[i].Hash(), sets[i - 1].Hash());
      }
    }
  }
}

}  // namespace
}  // namespace evident
