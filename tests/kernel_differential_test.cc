// Differential property tests for the evidence kernel's two conjunctive
// backends (pairwise vs fast Möbius transform) and for the ValueSet
// small-buffer representation at the inline/multi-word boundary. The
// two backends must be interchangeable: every combination rule has to
// produce the same focal structure with masses within 1e-12 no matter
// which kernel evaluated the product.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/column_store.h"
#include "core/operations.h"
#include "core/parallel.h"
#include "ds/combination.h"
#include "ds/combination_internal.h"
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

/// Bit-for-bit tuple equality: same value kinds, equal values, evidence
/// over the same domain with identical focal sets and masses.
bool SameTupleBits(const ExtendedTuple& a, const ExtendedTuple& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].index() != b.cells[i].index()) return false;
    if (CellIsValue(a.cells[i])) {
      const Value& x = std::get<Value>(a.cells[i]);
      const Value& y = std::get<Value>(b.cells[i]);
      if (x.kind() != y.kind() || !(x == y)) return false;
    } else if (!(std::get<EvidenceSet>(a.cells[i]) ==
                 std::get<EvidenceSet>(b.cells[i]))) {
      return false;
    }
  }
  return std::bit_cast<uint64_t>(a.membership.sn) ==
             std::bit_cast<uint64_t>(b.membership.sn) &&
         std::bit_cast<uint64_t>(a.membership.sp) ==
             std::bit_cast<uint64_t>(b.membership.sp);
}

TEST(ColumnarDifferentialTest, ColumnStoreRoundTripIsLossless) {
  // Insert packs each tuple into the column image (value columns, packed
  // focal spans for frames of <= 64 values, boxed sets beyond); rows()
  // must hand back exactly the tuples inserted. The preprocessor builds
  // its images through the same appender, so this is the check of the
  // packing that does not go through it twice.
  std::vector<std::string> symbols;
  for (int i = 0; i < 70; ++i) symbols.push_back("w" + std::to_string(i));
  const DomainPtr narrow =
      Domain::MakeSymbolic("narrow10", {"a", "b", "c", "d", "e", "f", "g",
                                        "h", "i", "j"})
          .value();
  const DomainPtr wide = Domain::MakeSymbolic("wide70", symbols).value();
  const SchemaPtr schema =
      RelationSchema::Make({AttributeDef::Key("k"),
                            AttributeDef::Definite("d"),
                            AttributeDef::Uncertain("n", narrow),
                            AttributeDef::Uncertain("w", wide)})
          .value();
  WorkloadGenerator gen(42);
  GeneratorOptions options;
  options.max_focals = 6;
  Rng rng(42);
  std::vector<ExtendedTuple> want;
  ExtendedRelation rel("R", schema);
  for (int64_t i = 0; i < 300; ++i) {
    ExtendedTuple t;
    t.cells.push_back(i % 2 == 0 ? Value(i) : Value("s" + std::to_string(i)));
    t.cells.push_back(i % 3 == 0 ? Value(0.25 * static_cast<double>(i))
                                 : Value(i % 7));
    t.cells.push_back(gen.RandomEvidence(narrow, options).value());
    t.cells.push_back(gen.RandomEvidence(wide, options).value());
    const double sn = 0.01 + 0.98 * rng.NextDouble();
    t.membership = SupportPair{sn, sn + (1.0 - sn) * rng.NextDouble()};
    want.push_back(t);
    ASSERT_TRUE(rel.Insert(std::move(t)).ok());
  }
  ASSERT_EQ(rel.columns().kind(2), ColumnStore::ColumnKind::kEvidence);
  ASSERT_EQ(rel.columns().kind(3), ColumnStore::ColumnKind::kBoxed);
  EXPECT_EQ(rel.rows_materialized(), 0u);
  ASSERT_EQ(rel.rows().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameTupleBits(rel.row(i), want[i]))
        << "row " << i << ": " << rel.row(i).ToString() << " vs "
        << want[i].ToString();
    // Key probes reach the row through the index over the key arena.
    auto found = rel.FindByKey(rel.KeyOf(want[i]));
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*found, i);
  }
  // A tuple inserted after the row image was built extends it in step.
  ExtendedTuple late = want.back();
  late.cells[0] = Value(int64_t{1000});
  ASSERT_TRUE(rel.Insert(late).ok());
  ASSERT_EQ(rel.rows().size(), want.size() + 1);
  EXPECT_TRUE(SameTupleBits(rel.rows().back(), late));
  // A duplicate key is rejected and leaves the relation unchanged.
  const Status dup = rel.Insert(want.front());
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rel.size(), want.size() + 1);
  EXPECT_EQ(rel.columns().encoded_keys().size(), want.size() + 1);
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
  // matched combination in the join) on transient tuples. Sizes span several
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
  // An unbindable multiway predicate still prunes by its definite equi
  // edges, in the given join order; the residual is interpreted per
  // surviving combination.
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
  const ExtendedRelation lc = ExtendedRelation::AdoptColumns(l.columns());
  const ExtendedRelation rc = ExtendedRelation::AdoptColumns(r.columns());
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

// ---------------------------------------------------------------------------
// Generation-order oracle: the pairwise kernel sums the products landing
// on one word (kappa's included) in generation order, i-major over the
// left focal elements and j-minor over the right ones, whichever merge
// it uses. A naive std::map accumulator fed in that order must therefore
// match it bit for bit, through the row store and the batch kernel.

/// Dempster's rule the naive way. Returns false on total conflict.
bool OracleDempster(const MassFunction& a, const MassFunction& b,
                    double* kappa, std::map<uint64_t, double>* terms) {
  *kappa = 0.0;
  terms->clear();
  for (const auto& [x, mx] : a.focals()) {
    for (const auto& [y, my] : b.focals()) {
      const double product = mx * my;
      if (product == 0.0) continue;
      const uint64_t z = x.InlineWord() & y.InlineWord();
      if (z == 0) {
        *kappa += product;
      } else {
        (*terms)[z] += product;
      }
    }
  }
  if (*kappa >= 1.0 - kMassEpsilon) return false;
  double total = 0.0;
  for (const auto& [word, mass] : *terms) total += mass;
  if (total <= kMassEpsilon) return false;
  for (auto& [word, mass] : *terms) mass /= total;
  return true;
}

uint64_t FrameMask(size_t universe) {
  return universe >= 64 ? ~uint64_t{0} : (uint64_t{1} << universe) - 1;
}

/// A mass function on `count` distinct non-empty focal words drawn
/// inside `mask`, or nullopt when the mask cannot hold that many.
std::optional<MassFunction> DistinctWordMass(Rng* rng, size_t universe,
                                             uint64_t mask, size_t count) {
  const int bits = std::popcount(mask);
  if (bits < 20 && count > (size_t{1} << bits) - 1) return std::nullopt;
  std::set<uint64_t> words;
  while (words.size() < count) {
    const uint64_t w = rng->Next() & mask;
    if (w != 0) words.insert(w);
  }
  std::vector<double> weights(count);
  double total = 0.0;
  for (double& w : weights) {
    w = 0.05 + rng->NextDouble();
    total += w;
  }
  MassFunction m(universe);
  size_t f = 0;
  for (uint64_t w : words) {
    EXPECT_TRUE(m.Add(ValueSet::FromWord(universe, w), weights[f++] / total)
                    .ok());
  }
  return m;
}

TEST(KernelDifferentialTest, PairwiseKernelSumsInGenerationOrder) {
  Rng rng(1717);
  // Focal counts whose products are 1, 16, 17, 512 and 513 terms: the
  // old merge switched from insertion sort to introsort above 16 terms
  // and from sorting to hashing above 512.
  const std::pair<size_t, size_t> shapes[] = {
      {1, 1}, {4, 4}, {16, 1}, {17, 1}, {1, 17}, {32, 16}, {16, 32},
      {27, 19}, {19, 27}};
  std::vector<size_t> universes;
  for (size_t u = 1; u <= 20; ++u) universes.push_back(u);
  for (size_t u : {24, 31, 32, 33, 48, 63, 64}) universes.push_back(u);

  size_t cases = 0, conflicts = 0;
  for (const size_t universe : universes) {
    const uint64_t full = FrameMask(universe);
    // Duplicate-heavy operands: the right side lives in the low bits
    // only, so the products collapse onto few words (and onto kappa).
    const uint64_t low = FrameMask(std::min<size_t>(universe, 5));
    // Total conflict: the two sides live in disjoint halves.
    const uint64_t half = FrameMask(universe / 2);
    std::vector<std::pair<MassFunction, MassFunction>> pairs;
    for (const auto& [fa, fb] : shapes) {
      for (int mode = 0; mode < 3; ++mode) {
        if (mode == 2 && universe < 2) continue;
        const uint64_t left_mask = mode == 2 ? full & ~half : full;
        const uint64_t right_mask =
            mode == 0 ? full : (mode == 1 ? low : half);
        std::optional<MassFunction> a =
            DistinctWordMass(&rng, universe, left_mask, fa);
        std::optional<MassFunction> b =
            DistinctWordMass(&rng, universe, right_mask, fb);
        if (a && b) pairs.emplace_back(std::move(*a), std::move(*b));
      }
    }
    // Products that underflow to 0.0 are skipped: {0,1} is reached only
    // by the 1e-200 · 1e-200 term and must not become a focal element.
    if (universe >= 3) {
      MassFunction a(universe), b(universe);
      ASSERT_TRUE(a.Add(ValueSet::FromWord(universe, 0b011), 1e-200).ok());
      ASSERT_TRUE(a.Add(ValueSet::FromWord(universe, 0b100), 1.0).ok());
      ASSERT_TRUE(b.Add(ValueSet::FromWord(universe, 0b011), 1e-200).ok());
      ASSERT_TRUE(b.Add(ValueSet::FromWord(universe, 0b110), 1.0).ok());
      double kappa = 0.0;
      std::map<uint64_t, double> terms;
      ASSERT_TRUE(OracleDempster(a, b, &kappa, &terms));
      ASSERT_EQ(terms.count(0b011), 0u);
      pairs.emplace_back(std::move(a), std::move(b));
    }

    DomainPtr domain =
        Domain::MakeIntRange("frame", 0, static_cast<int64_t>(universe) - 1)
            .value();
    std::vector<MassFunction> lhs, rhs;
    std::vector<bool> oracle_ok;
    std::vector<std::map<uint64_t, double>> oracle_terms;
    for (const auto& [a, b] : pairs) {
      ++cases;
      const std::string where = "universe " + std::to_string(universe) +
                                " terms " +
                                std::to_string(a.FocalCount() * b.FocalCount());
      double kappa = 0.0;
      std::map<uint64_t, double> terms;
      const bool ok = OracleDempster(a, b, &kappa, &terms);
      conflicts += ok ? 0 : 1;

      // The row store, forced pairwise.
      double kernel_kappa = -1.0;
      auto combined = Combine(a, b, CombinationRule::kDempster,
                              &kernel_kappa, CombineBackend::kPairwise);
      EXPECT_EQ(kernel_kappa, kappa) << where;
      ASSERT_EQ(combined.ok(), ok) << where;
      if (ok) {
        ASSERT_EQ(combined->FocalCount(), terms.size()) << where;
        size_t f = 0;
        for (const auto& [word, mass] : terms) {
          EXPECT_EQ(combined->focals()[f].first.InlineWord(), word) << where;
          EXPECT_EQ(combined->focals()[f].second, mass) << where;
          ++f;
        }
      }
      // The evidence-facing entry point, where the cost model keeps the
      // pair on the pairwise kernel.
      if (!ds_internal::FmtProfitable(universe,
                                      a.FocalCount() * b.FocalCount())) {
        auto evidence = CombineEvidence(EvidenceSet::MakeTrusted(domain, a),
                                        EvidenceSet::MakeTrusted(domain, b));
        ASSERT_EQ(evidence.ok(), ok) << where;
        if (ok) {
          EXPECT_EQ(evidence->mass().focals(), combined->focals()) << where;
        }
      }
      lhs.push_back(a);
      rhs.push_back(b);
      oracle_ok.push_back(ok);
      oracle_terms.push_back(std::move(terms));
    }

    // The batch kernel over the same pairs.
    std::vector<uint64_t> lw, rw;
    std::vector<double> lm, rm;
    std::vector<uint32_t> lo, ro;
    PackColumn(lhs, &lw, &lm, &lo);
    PackColumn(rhs, &rw, &rm, &ro);
    const FocalSpanColumn lcol{lw.data(), lm.data(), lo.data()};
    const FocalSpanColumn rcol{rw.data(), rm.data(), ro.data()};
    BatchCombineResult batch;
    CombineColumnBatch(universe, CombinationRule::kDempster, lcol, nullptr,
                       rcol, nullptr, lhs.size(), &batch);
    ASSERT_EQ(batch.offsets.size(), lhs.size() + 1);
    for (size_t i = 0; i < lhs.size(); ++i) {
      if (ds_internal::FmtProfitable(
              universe, lhs[i].FocalCount() * rhs[i].FocalCount())) {
        continue;
      }
      const std::string where =
          "universe " + std::to_string(universe) + " pair " +
          std::to_string(i);
      ASSERT_EQ(batch.total_conflict[i] == 0, oracle_ok[i]) << where;
      if (!oracle_ok[i]) continue;
      ASSERT_EQ(batch.offsets[i + 1] - batch.offsets[i],
                oracle_terms[i].size())
          << where;
      size_t k = batch.offsets[i];
      for (const auto& [word, mass] : oracle_terms[i]) {
        EXPECT_EQ(batch.words[k], word) << where;
        EXPECT_EQ(batch.masses[k], mass) << where;
        ++k;
      }
    }
  }
  // The generator really reached every regime.
  EXPECT_GT(cases, 400u);
  EXPECT_GT(conflicts, 20u);
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
