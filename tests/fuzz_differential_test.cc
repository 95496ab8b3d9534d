// Randomized differential fuzz harness for the extended relational
// algebra: random schemas (mixed key/definite/uncertain attributes,
// frames of 2-96 values — wide frames past the 64-value inline word
// exercise the boxed columns and interpreted (unbindable) predicates —
// adversarial focal densities straddling the
// kAuto pairwise <-> fast-Möbius boundary), random relations, and random
// operator trees (Select / Project / Union / Intersect / Join / Product
// / MergeTuples with random predicates, including equi- and non-equi
// joins). Every tree executes under every kernel/thread mode —
// {SIMD, scalar} x {threads 1, 7} — and the results must be
// *bit-identical*: same schemas, same row order, exactly equal focal
// structures, masses and memberships, and identical first-error
// statuses (code and message). The engine must also agree with the
// naive reference evaluator (tests/reference), keyed by key: the same
// outcomes and status codes, bit-identical cells and memberships. Trees
// additionally round-trip their inputs through both .erel file formats
// (the v3 column image exactly, the v1 text format within the
// serialized precision) and their outputs through the column image
// without ever materializing row objects.
//
// The default seed runs kDefaultCases cases (one operator tree each);
// set EVIDENT_FUZZ_ITERS for deeper runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/column_store.h"
#include "core/operations.h"
#include "core/parallel.h"
#include "core/query_context.h"
#include "ds/combination.h"
#include "integration/entity_identifier.h"
#include "integration/tuple_merger.h"
#include "query/engine.h"
#include "reference/reference.h"
#include "storage/erel_format.h"

namespace evident {
namespace {

constexpr size_t kDefaultCases = 200;

size_t FuzzCases() {
  const char* env = std::getenv("EVIDENT_FUZZ_ITERS");
  if (env == nullptr || *env == '\0') return kDefaultCases;
  const unsigned long long v = std::strtoull(env, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : kDefaultCases;
}

// ---------------------------------------------------------------------------
// Execution modes.

struct Mode {
  bool simd;
  size_t threads;
  const char* name;
};

/// kModes[0] is the baseline the other modes must match row for row:
/// the scalar batch kernel, serial.
constexpr Mode kModes[] = {
    {false, 1, "scalar/t1"},
    {false, 7, "scalar/t7"},
    {true, 1, "simd/t1"},
    {true, 7, "simd/t7"},
};

void SetMode(const Mode& mode) {
  SetBatchSimdEnabled(mode.simd);
  SetParallelMaxThreads(mode.threads);
}

void RestoreDefaults() {
  SetBatchSimdEnabled(true);
  SetParallelMaxThreads(0);
}

// ---------------------------------------------------------------------------
// Random inputs.

DomainPtr RandomDomain(Rng* rng, const std::string& name) {
  // Frames from 2 to the inline limit 64, deliberately crowding the
  // fast-Möbius eligibility boundary (14) on both sides — plus frames
  // *beyond* the inline word (65/80/96), whose attributes store as
  // boxed columns and whose predicates cannot bind (the interpreted
  // fallback differential). Three wide entries out of fourteen means
  // every run's several hundred domains include wide frames with
  // near-certainty.
  static constexpr size_t kSizes[] = {2,  3,  5,  8,  10, 12, 14,
                                      15, 17, 33, 64, 65, 80, 96};
  const size_t n = kSizes[rng->Below(std::size(kSizes))];
  std::vector<std::string> symbols;
  symbols.reserve(n);
  for (size_t i = 0; i < n; ++i) symbols.push_back("v" + std::to_string(i));
  return Domain::MakeSymbolic(name, symbols).value();
}

SchemaPtr RandomSchema(Rng* rng, const std::string& domain_prefix) {
  std::vector<AttributeDef> attrs;
  attrs.push_back(AttributeDef::Key("key"));
  if (rng->Chance(0.25)) attrs.push_back(AttributeDef::Key("key2"));
  const size_t definites = rng->Below(3);
  for (size_t d = 0; d < definites; ++d) {
    attrs.push_back(AttributeDef::Definite("def" + std::to_string(d)));
  }
  const size_t uncertains = 1 + rng->Below(3);
  for (size_t u = 0; u < uncertains; ++u) {
    attrs.push_back(AttributeDef::Uncertain(
        "unc" + std::to_string(u),
        RandomDomain(rng, domain_prefix + "dom" + std::to_string(u))));
  }
  return RelationSchema::Make(std::move(attrs)).value();
}

/// A random valid evidence set with an adversarial density profile:
/// mostly sparse (1-5 focals), but a substantial fraction dense enough
/// that pairwise products in Union/MergeTuples cross the kAuto
/// cost-model threshold into the fast-Möbius lattice; occasional
/// definite singletons (the total-conflict fuel) and vacuous sets.
EvidenceSet RandomEvidence(Rng* rng, const DomainPtr& domain) {
  const size_t universe = domain->size();
  if (rng->Chance(0.2)) {
    return EvidenceSet::MakeTrusted(
        domain, MassFunction::Definite(universe, rng->Below(universe)));
  }
  if (rng->Chance(0.05)) return EvidenceSet::Vacuous(domain);
  const size_t focals = rng->Chance(0.3)
                            ? 16 + rng->Below(48)  // dense: lattice territory
                            : 1 + rng->Below(5);   // sparse: pairwise
  std::vector<double> weights(focals);
  double total = 0.0;
  for (double& w : weights) {
    w = 0.05 + rng->NextDouble();
    total += w;
  }
  MassFunction m(universe);
  for (size_t f = 0; f < focals; ++f) {
    ValueSet set(universe);
    const size_t members = 1 + rng->Below(std::min<size_t>(universe, 8));
    for (size_t e = 0; e < members; ++e) set.Set(rng->Below(universe));
    EXPECT_TRUE(m.Add(set, weights[f] / total).ok());
  }
  return EvidenceSet::MakeTrusted(domain, std::move(m));
}

ExtendedRelation RandomRelation(Rng* rng, const std::string& name,
                                const SchemaPtr& schema, size_t rows,
                                size_t key_range, bool string_keys) {
  ExtendedRelation rel(name, schema);
  std::unordered_set<int64_t> used;
  for (size_t r = 0; r < rows; ++r) {
    int64_t k;
    do {
      k = static_cast<int64_t>(rng->Below(key_range));
    } while (!used.insert(k).second);
    ExtendedTuple t;
    t.cells.reserve(schema->size());
    bool first_key = true;
    for (const AttributeDef& attr : schema->attributes()) {
      switch (attr.kind) {
        case AttributeKind::kKey:
          if (first_key) {
            // The first key column carries the uniqueness; later key
            // columns draw small values so composite keys still collide
            // across relations.
            t.cells.emplace_back(string_keys
                                     ? Value("k" + std::to_string(k))
                                     : Value(k));
            first_key = false;
          } else {
            t.cells.emplace_back(Value(static_cast<int64_t>(rng->Below(3))));
          }
          break;
        case AttributeKind::kDefinite:
          t.cells.emplace_back(Value(static_cast<int64_t>(rng->Below(6))));
          break;
        case AttributeKind::kUncertain:
          t.cells.emplace_back(RandomEvidence(rng, attr.domain));
          break;
      }
    }
    // sn is kept well above 0 so text-format rounding can never destroy
    // the CWA_ER invariant of a stored tuple.
    const double sn = rng->Chance(0.3) ? 0.05 + 0.95 * rng->NextDouble() : 1.0;
    const double sp = sn + rng->NextDouble() * (1.0 - sn);
    t.membership = SupportPair{sn, sp};
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  return rel;
}

// ---------------------------------------------------------------------------
// Random predicates.

ThetaOp RandomThetaOp(Rng* rng) {
  static constexpr ThetaOp kOps[] = {ThetaOp::kEq, ThetaOp::kLt, ThetaOp::kLe,
                                     ThetaOp::kGt, ThetaOp::kGe};
  return kOps[rng->Below(std::size(kOps))];
}

PredicatePtr RandomConjunct(Rng* rng, const RelationSchema& schema) {
  // Rarely reference a missing attribute: every mode (and the bound
  // fallback) must report the identical error.
  if (rng->Chance(0.02)) return IsSym("no_such_attr", {"v0"});
  const size_t a = rng->Below(schema.size());
  const AttributeDef& attr = schema.attribute(a);
  if (attr.kind != AttributeKind::kUncertain) {
    if (rng->Chance(0.5)) {
      std::vector<Value> values;
      const size_t count = 1 + rng->Below(3);
      for (size_t i = 0; i < count; ++i) {
        values.emplace_back(static_cast<int64_t>(rng->Below(8)));
      }
      return Is(attr.name, std::move(values));
    }
    return Theta(ThetaOperand::Attr(attr.name), RandomThetaOp(rng),
                 ThetaOperand::LitValue(
                     Value(static_cast<int64_t>(rng->Below(8)))));
  }
  const DomainPtr& domain = attr.domain;
  const size_t n = domain->size();
  if (rng->Chance(0.5)) {
    std::vector<Value> values;
    const size_t count = 1 + rng->Below(std::min<size_t>(n, 4));
    for (size_t i = 0; i < count; ++i) {
      values.push_back(domain->value(rng->Below(n)));
    }
    // Occasionally a constant outside the frame: a per-row error in the
    // interpreted path, which the bound path must reproduce by falling
    // back — including producing *no* error over an empty input.
    if (rng->Chance(0.04)) values.emplace_back("zz_outside_frame");
    return Is(attr.name, std::move(values));
  }
  const ThetaSemantics semantics = rng->Chance(0.5)
                                       ? ThetaSemantics::kForallExists
                                       : ThetaSemantics::kForallForall;
  ThetaOperand lhs = ThetaOperand::Attr(attr.name);
  ThetaOperand rhs = ThetaOperand::LitValue(Value(int64_t{0}));
  switch (rng->Below(3)) {
    case 0: {  // another attribute (any kind)
      const AttributeDef& other = schema.attribute(rng->Below(schema.size()));
      rhs = ThetaOperand::Attr(other.name);
      break;
    }
    case 1:  // literal evidence over this attribute's frame
      rhs = ThetaOperand::Lit(RandomEvidence(rng, domain));
      break;
    case 2:  // literal domain value
      rhs = ThetaOperand::LitValue(domain->value(rng->Below(n)));
      break;
  }
  if (rng->Chance(0.3)) std::swap(lhs, rhs);
  return Theta(std::move(lhs), RandomThetaOp(rng), std::move(rhs), semantics);
}

PredicatePtr RandomPredicate(Rng* rng, const RelationSchema& schema) {
  const size_t conjuncts = 1 + rng->Below(3);
  std::vector<PredicatePtr> cs;
  for (size_t i = 0; i < conjuncts; ++i) {
    cs.push_back(RandomConjunct(rng, schema));
  }
  return cs.size() == 1 ? cs.front() : And(std::move(cs));
}

/// A join predicate against the product schema: usually anchored by a
/// definite equi-conjunct (the hash/splice path), sometimes without one
/// (the Select-over-Product fallback), plus random residual conjuncts
/// referencing either side.
PredicatePtr RandomJoinPredicate(Rng* rng, const RelationSchema& product,
                                 size_t left_attrs, bool want_equi) {
  std::vector<PredicatePtr> cs;
  if (want_equi) {
    std::vector<size_t> lefts, rights;
    for (size_t i = 0; i < product.size(); ++i) {
      if (product.attribute(i).kind == AttributeKind::kUncertain) continue;
      (i < left_attrs ? lefts : rights).push_back(i);
    }
    const size_t li = lefts[rng->Below(lefts.size())];
    const size_t ri = rights[rng->Below(rights.size())];
    cs.push_back(Theta(ThetaOperand::Attr(product.attribute(li).name),
                       ThetaOp::kEq,
                       ThetaOperand::Attr(product.attribute(ri).name)));
  }
  const size_t extra = want_equi ? rng->Below(3) : 1 + rng->Below(2);
  for (size_t i = 0; i < extra; ++i) {
    cs.push_back(RandomConjunct(rng, product));
  }
  return cs.size() == 1 ? cs.front() : And(std::move(cs));
}

MembershipThreshold RandomThreshold(Rng* rng) {
  MembershipThreshold q;
  if (rng->Chance(0.5)) return q;  // empty: the implicit sn > 0 only
  static constexpr MembershipThreshold::Cmp kCmps[] = {
      MembershipThreshold::Cmp::kGt, MembershipThreshold::Cmp::kGe,
      MembershipThreshold::Cmp::kLt, MembershipThreshold::Cmp::kLe};
  const size_t atoms = 1 + rng->Below(2);
  for (size_t i = 0; i < atoms; ++i) {
    q.AndAlso(rng->Chance(0.6) ? MembershipThreshold::Field::kSn
                               : MembershipThreshold::Field::kSp,
              kCmps[rng->Below(std::size(kCmps))], rng->NextDouble() * 0.8);
  }
  return q;
}

UnionOptions RandomUnionOptions(Rng* rng) {
  static constexpr CombinationRule kRules[] = {
      CombinationRule::kDempster, CombinationRule::kTBM,
      CombinationRule::kYager, CombinationRule::kMixing};
  static constexpr TotalConflictPolicy kConflict[] = {
      TotalConflictPolicy::kError, TotalConflictPolicy::kSkipTuple,
      TotalConflictPolicy::kVacuous};
  static constexpr DefiniteConflictPolicy kDefinite[] = {
      DefiniteConflictPolicy::kError, DefiniteConflictPolicy::kPreferLeft,
      DefiniteConflictPolicy::kPreferRight};
  UnionOptions options;
  options.rule = kRules[rng->Below(std::size(kRules))];
  options.on_total_conflict = kConflict[rng->Below(std::size(kConflict))];
  options.on_definite_conflict = kDefinite[rng->Below(std::size(kDefinite))];
  return options;
}

// ---------------------------------------------------------------------------
// Operator-tree plans.

struct Node {
  enum class Op {
    kSelect,
    kProject,
    kUnion,
    kIntersect,
    kMerge,
    kJoin,
    kProduct,
    kRename
  };
  Op op;
  size_t left = 0, right = 0;  // slot indices
  PredicatePtr predicate;      // kSelect, kJoin
  MembershipThreshold threshold;
  UnionOptions options;                   // kUnion, kIntersect, kMerge
  std::vector<std::string> project_attrs; // kProject
  MatchingInfo matching;                  // kMerge
  std::string rename_from, rename_to;     // kRename
};

const char* NodeOpName(Node::Op op) {
  switch (op) {
    case Node::Op::kSelect: return "select";
    case Node::Op::kProject: return "project";
    case Node::Op::kUnion: return "union";
    case Node::Op::kIntersect: return "intersect";
    case Node::Op::kMerge: return "merge";
    case Node::Op::kJoin: return "join";
    case Node::Op::kProduct: return "product";
    case Node::Op::kRename: return "rename";
  }
  return "?";
}

Result<ExtendedRelation> ExecuteNode(
    const Node& node, const std::vector<ExtendedRelation>& slots) {
  switch (node.op) {
    case Node::Op::kSelect:
      return Select(slots[node.left], node.predicate, node.threshold);
    case Node::Op::kProject:
      return Project(slots[node.left], node.project_attrs);
    case Node::Op::kUnion:
      return Union(slots[node.left], slots[node.right], node.options);
    case Node::Op::kIntersect:
      return Intersect(slots[node.left], slots[node.right], node.options);
    case Node::Op::kMerge:
      return MergeTuples(slots[node.left], slots[node.right], node.matching,
                         node.options);
    case Node::Op::kJoin:
      return Join(slots[node.left], slots[node.right], node.predicate,
                  node.threshold);
    case Node::Op::kProduct:
      return Product(slots[node.left], slots[node.right]);
    case Node::Op::kRename:
      return RenameAttribute(slots[node.left], node.rename_from,
                             node.rename_to);
  }
  return Status::Internal("unreachable node op");
}

/// The same node evaluated by the naive reference evaluator.
Result<ExtendedRelation> ExecuteReferenceNode(
    const Node& node, const std::vector<ExtendedRelation>& slots) {
  switch (node.op) {
    case Node::Op::kSelect:
      return reference::Select(slots[node.left], node.predicate,
                               node.threshold);
    case Node::Op::kProject:
      return reference::Project(slots[node.left], node.project_attrs);
    case Node::Op::kUnion:
      return reference::Union(slots[node.left], slots[node.right],
                              node.options);
    case Node::Op::kIntersect:
      return reference::Intersect(slots[node.left], slots[node.right],
                                  node.options);
    case Node::Op::kMerge:
      return reference::MergeTuples(slots[node.left], slots[node.right],
                                    node.matching, node.options);
    case Node::Op::kJoin:
      return reference::Join(slots[node.left], slots[node.right],
                             node.predicate, node.threshold);
    case Node::Op::kProduct:
      return reference::Product(slots[node.left], slots[node.right]);
    case Node::Op::kRename:
      return reference::Rename(slots[node.left], node.rename_from,
                               node.rename_to);
  }
  return Status::Internal("unreachable node op");
}

using NodeExecutor = Result<ExtendedRelation> (*)(
    const Node&, const std::vector<ExtendedRelation>&);

struct FuzzCase {
  std::vector<ExtendedRelation> bases;
  std::vector<Node> nodes;
};

/// Runs the plan over `bases`, collecting one Result per node. A node
/// whose execution succeeds contributes a new slot consumable by later
/// nodes (so deep pipelines carry each run's own intermediates).
/// node.matching indexes the generation-time row order; `rematch`
/// recomputes each kMerge node's matching by key against the run's own
/// slots, for runs whose rows may come in another order (partitioned
/// images, the reference evaluator).
std::vector<Result<ExtendedRelation>> RunPlan(
    const std::vector<ExtendedRelation>& bases,
    const std::vector<Node>& nodes, NodeExecutor execute = ExecuteNode,
    bool rematch = false) {
  std::vector<ExtendedRelation> slots = bases;
  std::vector<Result<ExtendedRelation>> results;
  results.reserve(nodes.size());
  for (const Node& node : nodes) {
    Node fixed = node;
    if (rematch && node.op == Node::Op::kMerge) {
      auto matching = MatchByKey(slots[node.left], slots[node.right]);
      if (!matching.ok()) {
        results.push_back(matching.status());
        continue;
      }
      fixed.matching = std::move(matching).value();
    }
    Result<ExtendedRelation> result = execute(fixed, slots);
    if (result.ok()) slots.push_back(*result);
    results.push_back(std::move(result));
  }
  return results;
}

/// Engine outcomes against the reference evaluator's, op by op, keyed.
void ExpectMatchesReference(const std::vector<Result<ExtendedRelation>>& got,
                            const std::vector<Result<ExtendedRelation>>& want,
                            const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(reference::DiffByKey(got[i], want[i]), "")
        << what << " op " << i;
  }
}

/// Generates a case: base relations plus an operator tree. The planner
/// executes each candidate node on baseline slots as it goes, both to
/// know intermediate schemas/sizes (for choosing compatible operands
/// and bounding growth) and because error nodes end no slot.
FuzzCase GenerateCase(uint64_t seed, bool big) {
  Rng rng(seed);
  FuzzCase c;
  const bool string_keys = rng.Chance(0.3);
  const size_t rows = big ? 300 + rng.Below(180) : 6 + rng.Below(42);
  const size_t key_range = 2 * rows + rng.Below(2 * rows);
  const SchemaPtr schema_a = RandomSchema(&rng, "a_");
  const SchemaPtr schema_b = RandomSchema(&rng, "b_");
  c.bases.push_back(
      RandomRelation(&rng, "R0", schema_a, rows, key_range, string_keys));
  c.bases.push_back(
      RandomRelation(&rng, "R1", schema_a, rows, key_range, string_keys));
  c.bases.push_back(
      RandomRelation(&rng, "R2", schema_b, rows, key_range, string_keys));
  if (rng.Chance(0.5)) {
    c.bases.push_back(
        RandomRelation(&rng, "R3", schema_b, rows, key_range, string_keys));
  }

  SetMode(kModes[0]);  // plan against the baseline mode
  std::vector<ExtendedRelation> slots = c.bases;
  const size_t steps = 2 + rng.Below(4);
  const size_t max_pairs = big ? 8192 : 20000;
  for (size_t step = 0; step < steps; ++step) {
    Node node;
    bool viable = false;
    for (int attempt = 0; attempt < 8 && !viable; ++attempt) {
      node = Node();
      const size_t pick = rng.Below(11);
      node.left = rng.Below(slots.size());
      const ExtendedRelation& l = slots[node.left];
      if (pick == 10) {  // rename (schema-only; adopts the column image)
        const auto& nonkeys = l.schema()->nonkey_indices();
        if (nonkeys.empty()) continue;
        const std::string from =
            l.schema()->attribute(nonkeys[rng.Below(nonkeys.size())]).name;
        const std::string to = from + "_r";
        if (l.schema()->Has(to)) continue;
        node.op = Node::Op::kRename;
        node.rename_from = from;
        node.rename_to = to;
        viable = true;
      } else if (pick < 3) {  // select
        node.op = Node::Op::kSelect;
        node.predicate = RandomPredicate(&rng, *l.schema());
        node.threshold = RandomThreshold(&rng);
        viable = true;
      } else if (pick < 4) {  // project
        node.op = Node::Op::kProject;
        for (size_t k : l.schema()->key_indices()) {
          node.project_attrs.push_back(l.schema()->attribute(k).name);
        }
        for (size_t i : l.schema()->nonkey_indices()) {
          if (rng.Chance(0.6)) {
            node.project_attrs.push_back(l.schema()->attribute(i).name);
          }
        }
        viable = true;
      } else if (pick < 7) {  // union / intersect / merge
        std::vector<size_t> compatible;
        for (size_t s = 0; s < slots.size(); ++s) {
          if (slots[s].schema()->UnionCompatibleWith(*l.schema()) &&
              slots[s].size() + l.size() <= max_pairs) {
            compatible.push_back(s);
          }
        }
        if (compatible.empty()) continue;
        node.right = compatible[rng.Below(compatible.size())];
        node.options = RandomUnionOptions(&rng);
        const size_t which = rng.Below(3);
        if (which == 0) {
          node.op = Node::Op::kUnion;
        } else if (which == 1) {
          node.op = Node::Op::kIntersect;
        } else {
          node.op = Node::Op::kMerge;
          auto matching = MatchByKey(l, slots[node.right]);
          if (!matching.ok()) continue;
          node.matching = std::move(matching).value();
        }
        viable = true;
      } else {  // join / product
        node.right = rng.Below(slots.size());
        const ExtendedRelation& r = slots[node.right];
        if (l.empty() || r.empty()) {
          // Empty operands are legal (and covered by Select producing
          // them); prefer trees that keep doing work.
          if (attempt < 6) continue;
        }
        if (pick < 9) {
          node.op = Node::Op::kJoin;
          const bool want_equi = rng.Chance(0.75);
          const size_t bound = l.size() * std::max<size_t>(r.size(), 1);
          if (want_equi ? bound > 16 * max_pairs : bound > max_pairs / 4) {
            continue;
          }
          auto product_schema = MakeProductSchema(l, r);
          if (!product_schema.ok()) continue;
          node.predicate = RandomJoinPredicate(
              &rng, **product_schema, l.schema()->size(), want_equi);
          node.threshold = RandomThreshold(&rng);
        } else {
          node.op = Node::Op::kProduct;
          if (l.size() * std::max<size_t>(r.size(), 1) > max_pairs / 4) {
            continue;
          }
        }
        viable = true;
      }
    }
    if (!viable) break;
    // Execute to keep the planner's slots in lockstep with RunPlan (ok
    // results become slots, error nodes do not). Error nodes stay in the
    // plan: the error must be identical in every mode.
    Result<ExtendedRelation> result = ExecuteNode(node, slots);
    if (result.ok()) slots.push_back(std::move(result).value());
    c.nodes.push_back(std::move(node));
  }
  return c;
}

// ---------------------------------------------------------------------------
// Comparators.

/// eps == 0: bit-identical (same schema, same row order, same focal
/// structure, bitwise-equal masses and memberships). eps > 0: same shape
/// with numeric wiggle room (the text format's serialized precision).
void ExpectRelationsMatch(const ExtendedRelation& ref,
                          const ExtendedRelation& got, double eps,
                          const std::string& what) {
  ASSERT_TRUE(ref.schema()->Equals(*got.schema())) << what;
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    const ExtendedTuple& x = ref.row(i);
    const ExtendedTuple& y = got.row(i);
    if (eps == 0.0) {
      ASSERT_EQ(x.membership.sn, y.membership.sn) << what << " row " << i;
      ASSERT_EQ(x.membership.sp, y.membership.sp) << what << " row " << i;
    } else {
      ASSERT_TRUE(x.membership.ApproxEquals(y.membership, eps))
          << what << " row " << i;
    }
    ASSERT_EQ(x.cells.size(), y.cells.size()) << what << " row " << i;
    for (size_t cix = 0; cix < x.cells.size(); ++cix) {
      ASSERT_TRUE(CellApproxEquals(x.cells[cix], y.cells[cix], eps))
          << what << " row " << i << " cell " << cix;
    }
  }
}

void ExpectOutcomesMatch(const std::vector<Result<ExtendedRelation>>& ref,
                         const std::vector<Result<ExtendedRelation>>& got,
                         double eps, bool compare_messages,
                         const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    const std::string where = what + " op " + std::to_string(i);
    ASSERT_EQ(ref[i].ok(), got[i].ok())
        << where << "\nref:  " << ref[i].status().ToString()
        << "\ngot: " << got[i].status().ToString();
    if (!ref[i].ok()) {
      EXPECT_EQ(ref[i].status().code(), got[i].status().code()) << where;
      if (compare_messages) {
        EXPECT_EQ(ref[i].status().message(), got[i].status().message())
            << where;
      }
      continue;
    }
    ExpectRelationsMatch(*ref[i], *got[i], eps, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Exact keyed comparison: same schema, same cardinality, and for every
/// reference row an equal-keyed row with bitwise-equal cells and
/// membership (a partitioned image may list the rows in another order).
void ExpectRelationsMatchByKey(const ExtendedRelation& ref,
                               const ExtendedRelation& got,
                               const std::string& what) {
  ASSERT_TRUE(ref.schema()->Equals(*got.schema())) << what;
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    const ExtendedTuple& x = ref.row(i);
    auto found = got.FindByKey(ref.KeyOf(x));
    ASSERT_TRUE(found.ok()) << what << " row " << i;
    const ExtendedTuple& y = got.row(*found);
    ASSERT_EQ(x.membership.sn, y.membership.sn) << what << " row " << i;
    ASSERT_EQ(x.membership.sp, y.membership.sp) << what << " row " << i;
    ASSERT_EQ(x.cells.size(), y.cells.size()) << what << " row " << i;
    for (size_t cix = 0; cix < x.cells.size(); ++cix) {
      ASSERT_TRUE(CellApproxEquals(x.cells[cix], y.cells[cix], 0.0))
          << what << " row " << i << " cell " << cix;
    }
  }
}

// ---------------------------------------------------------------------------
// The harness.

TEST(FuzzDifferentialTest, OperatorTreesAgreeAcrossAllModesAndFormats) {
  const size_t cases = FuzzCases();
  for (size_t case_index = 0; case_index < cases; ++case_index) {
    const uint64_t seed = 0x5EEDF00DULL + case_index * 7919;
    const bool big = case_index % 23 == 11;  // thread-sharding exercise
    FuzzCase c = GenerateCase(seed, big);
    const std::string tag = "case " + std::to_string(case_index);

    SetMode(kModes[0]);
    const std::vector<Result<ExtendedRelation>> baseline =
        RunPlan(c.bases, c.nodes);
    const std::vector<Result<ExtendedRelation>> reference_run =
        RunPlan(c.bases, c.nodes, ExecuteReferenceNode, /*rematch=*/true);
    ExpectMatchesReference(baseline, reference_run, tag + " vs reference");
    if (::testing::Test::HasFatalFailure()) {
      RestoreDefaults();
      return;
    }

    for (size_t m = 1; m < std::size(kModes); ++m) {
      SetMode(kModes[m]);
      const std::vector<Result<ExtendedRelation>> got =
          RunPlan(c.bases, c.nodes);
      ExpectOutcomesMatch(baseline, got, /*eps=*/0.0,
                          /*compare_messages=*/true,
                          tag + " mode " + kModes[m].name);
      if (::testing::Test::HasFatalFailure()) {
        RestoreDefaults();
        return;
      }
    }

    // Round-trip the inputs through both file formats and re-execute.
    if (case_index % 5 == 0) {
      Catalog inputs;
      for (const ExtendedRelation& base : c.bases) {
        ASSERT_TRUE(inputs.RegisterRelation(base).ok()) << tag;
      }

      SetMode(kModes[0]);
      // Monolithic column image: bit-exact, row order preserved.
      auto v3 = ReadErel(WriteErelColumnImageV3(inputs));
      ASSERT_TRUE(v3.ok()) << tag << ": " << v3.status().ToString();
      std::vector<ExtendedRelation> v3_bases;
      for (const ExtendedRelation& base : c.bases) {
        const ExtendedRelation* loaded =
            v3->GetRelation(base.name()).value();
        EXPECT_EQ(loaded->rows_materialized(), 0u) << tag;
        v3_bases.push_back(*loaded);
      }
      ExpectOutcomesMatch(baseline, RunPlan(v3_bases, c.nodes),
                          /*eps=*/0.0, /*compare_messages=*/true,
                          tag + " v3 round trip");
      // v1 text: exact to the serialized precision; error *codes* must
      // still agree (messages may print the re-rounded masses).
      auto v1 = ReadErel(WriteErel(inputs));
      ASSERT_TRUE(v1.ok()) << tag << ": " << v1.status().ToString();
      std::vector<ExtendedRelation> v1_bases;
      for (const ExtendedRelation& base : c.bases) {
        v1_bases.push_back(*v1->GetRelation(base.name()).value());
      }
      ExpectOutcomesMatch(baseline, RunPlan(v1_bases, c.nodes),
                          /*eps=*/1e-6, /*compare_messages=*/false,
                          tag + " text round trip");
      if (::testing::Test::HasFatalFailure()) {
        RestoreDefaults();
        return;
      }
    }

    // Round-trip operator *outputs* through the column image: every
    // non-empty output is a column image (no operator builds rows, not
    // even for interpreted predicates), saving must not materialize
    // rows, and load must reproduce them bit-exactly.
    if (case_index % 5 == 2) {
      // A fresh run: the comparisons above read the baseline's rows.
      SetMode(kModes[0]);
      const std::vector<Result<ExtendedRelation>> fresh =
          RunPlan(c.bases, c.nodes);
      Catalog outputs;
      std::vector<size_t> saved_ops;
      for (size_t i = 0; i < fresh.size(); ++i) {
        if (!fresh[i].ok() || fresh[i]->size() == 0) continue;
        EXPECT_EQ(fresh[i]->rows_materialized(), 0u)
            << tag << ": op " << i << " (" << NodeOpName(c.nodes[i].op)
            << ") built row objects";
        ExtendedRelation copy = *fresh[i];
        copy.set_name("out" + std::to_string(i));
        ASSERT_TRUE(outputs.RegisterRelation(std::move(copy)).ok()) << tag;
        saved_ops.push_back(i);
      }
      const std::string blob = WriteErelColumnImageV3(outputs);
      for (size_t i : saved_ops) {
        const ExtendedRelation* rel =
            outputs.GetRelation("out" + std::to_string(i)).value();
        EXPECT_EQ(rel->rows_materialized(), 0u)
            << tag << ": saving op " << i
            << " materialized rows as a side effect";
      }
      auto loaded = ReadErel(blob);
      ASSERT_TRUE(loaded.ok()) << tag << ": " << loaded.status().ToString();
      for (size_t i : saved_ops) {
        const ExtendedRelation* rel =
            loaded->GetRelation("out" + std::to_string(i)).value();
        EXPECT_EQ(rel->rows_materialized(), 0u) << tag;
        ExpectRelationsMatch(*fresh[i], *rel, /*eps=*/0.0,
                             tag + " v3 output round trip op " +
                                 std::to_string(i) + " (" +
                                 NodeOpName(c.nodes[i].op) + ")");
        if (::testing::Test::HasFatalFailure()) {
          RestoreDefaults();
          return;
        }
      }
    }

    // v3 open-mode x partitioning axes: the same file opened mapped and
    // copied must hold bit-identical relations and execute the whole
    // tree to bit-identical outcomes (same first-error code AND
    // message); a partitioned image may reorder rows by partition, so it
    // compares keyed against the original. A random one-byte corruption
    // must then draw the *same* diagnosis from both open modes — at open
    // time for the copied path, at first forced verification for the
    // mapped path.
    if (case_index % 5 == 4) {
      SetMode(kModes[0]);
      Catalog inputs;
      for (const ExtendedRelation& base : c.bases) {
        ASSERT_TRUE(inputs.RegisterRelation(base).ok()) << tag;
      }
      Rng prng(seed ^ 0xA55EEDULL);
      PartitionSpec spec;
      const size_t scheme = prng.Below(3);
      spec.scheme = scheme == 0   ? PartitionSpec::Scheme::kNone
                    : scheme == 1 ? PartitionSpec::Scheme::kHash
                                  : PartitionSpec::Scheme::kKeyRange;
      spec.partitions =
          scheme == 0 ? 1 : static_cast<uint32_t>(1 + prng.Below(7));
      const std::string path = ::testing::TempDir() + "evident_fuzz_v3.erel";
      ASSERT_TRUE(SaveErelFile(inputs, path, spec).ok()) << tag;

      LoadOptions copy_opts;
      copy_opts.map = LoadOptions::Map::kNever;
      LoadOptions map_opts;
      map_opts.map = LoadOptions::Map::kAlways;
      LoadInfo map_info;
      auto owned = LoadErelFile(path, copy_opts);
      auto mapped = LoadErelFile(path, map_opts, &map_info);
      ASSERT_TRUE(owned.ok()) << tag << ": " << owned.status().ToString();
      ASSERT_TRUE(mapped.ok()) << tag << ": " << mapped.status().ToString();
      EXPECT_TRUE(map_info.mapped) << tag;

      std::vector<ExtendedRelation> owned_bases;
      std::vector<ExtendedRelation> mapped_bases;
      for (const ExtendedRelation& base : c.bases) {
        const ExtendedRelation* o = owned->GetRelation(base.name()).value();
        const ExtendedRelation* m = mapped->GetRelation(base.name()).value();
        // The mapped open's deferred verification must accept everything
        // the copied open's eager verification accepted.
        ASSERT_TRUE(m->columns().EnsureAllVerified().ok()) << tag;
        ExpectRelationsMatch(*o, *m, /*eps=*/0.0,
                             tag + " mmap vs owned " + base.name());
        ExpectRelationsMatchByKey(
            base, *o, tag + " partitioned vs original " + base.name());
        if (::testing::Test::HasFatalFailure()) {
          std::remove(path.c_str());
          RestoreDefaults();
          return;
        }
        owned_bases.push_back(*o);
        mapped_bases.push_back(*m);
      }

      // A partitioned image may reorder rows, so kMerge nodes are
      // rematched by key; both runs see the same file, hence the same
      // order, hence the same rematching.
      const std::vector<Result<ExtendedRelation>> owned_run =
          RunPlan(owned_bases, c.nodes, ExecuteNode, /*rematch=*/true);
      ExpectOutcomesMatch(
          owned_run,
          RunPlan(mapped_bases, c.nodes, ExecuteNode, /*rematch=*/true),
          /*eps=*/0.0, /*compare_messages=*/true,
          tag + " v3 mmap vs owned plan");

      // One random corrupt byte, diagnosed identically by both modes.
      std::string bytes;
      {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
      }
      ASSERT_GT(bytes.size(), 8u) << tag;
      const size_t pos = 8 + prng.Below(bytes.size() - 8);
      bytes[pos] = static_cast<char>(
          bytes[pos] ^ static_cast<char>(1u << prng.Below(8)));
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
      }
      auto bad_owned = LoadErelFile(path, copy_opts);
      auto bad_mapped = LoadErelFile(path, map_opts);
      if (!bad_mapped.ok()) {
        // Structural damage is diagnosed eagerly by both open modes.
        ASSERT_FALSE(bad_owned.ok()) << tag << " flipped byte " << pos;
        EXPECT_EQ(bad_owned.status().message(), bad_mapped.status().message())
            << tag << " flipped byte " << pos;
      } else {
        Status deferred = Status::OK();
        for (const std::string& name : bad_mapped->RelationNames()) {
          const ExtendedRelation* rel = bad_mapped->GetRelation(name).value();
          deferred = rel->columns().EnsureAllVerified();
          if (!deferred.ok()) break;
        }
        if (bad_owned.ok()) {
          // Should a flip ever escape every check, both modes must at
          // least accept it alike.
          EXPECT_TRUE(deferred.ok())
              << tag << " flipped byte " << pos << ": " << deferred;
        } else {
          ASSERT_FALSE(deferred.ok()) << tag << " flipped byte " << pos
                                      << ": " << bad_owned.status();
          EXPECT_EQ(bad_owned.status().message(), deferred.message())
              << tag << " flipped byte " << pos;
        }
      }
      std::remove(path.c_str());
      if (::testing::Test::HasFatalFailure()) {
        RestoreDefaults();
        return;
      }
    }

    // Governed re-run: the same tree under a random memory budget and
    // row cap must behave identically in every mode — the identical
    // nodes trip, with the identical ExecError message — and a budget
    // that suffices in one mode must suffice in all (the logical-charge
    // model bills the same totals regardless of threads or kernel).
    // Until the first trip, governed outcomes must equal the reference
    // evaluator's. Deadlines are excluded: *when* they fire is
    // inherently nondeterministic.
    if (case_index % 7 == 3) {
      Rng gov_rng(seed ^ 0x60BE44EDULL);
      QueryContext ctx;
      ctx.set_memory_budget(uint64_t{1} << (12 + gov_rng.Below(10)));
      ctx.set_row_cap(1 + gov_rng.Below(4096));

      // Governed plan runner with engine-style first-error semantics:
      // once a limit trips, every later node reports the sticky first
      // error without executing. (It must not execute: the generated
      // slot indices assume the ungoverned success pattern, and a trip
      // ends that pattern — exactly as a query stops at its first
      // error.)
      auto run_governed = [&ctx, &c]() {
        ctx.BeginQuery();
        ScopedQueryContext scope(&ctx);
        std::vector<ExtendedRelation> slots = c.bases;
        std::vector<Result<ExtendedRelation>> results;
        results.reserve(c.nodes.size());
        for (const Node& node : c.nodes) {
          if (ctx.failed()) {
            results.push_back(ctx.first_error());
            continue;
          }
          Result<ExtendedRelation> result = ExecuteNode(node, slots);
          if (result.ok()) slots.push_back(*result);
          results.push_back(std::move(result));
        }
        return results;
      };

      SetMode(kModes[0]);
      const std::vector<Result<ExtendedRelation>> gov_baseline =
          run_governed();
      const uint64_t ref_rows = ctx.rows_charged();
      const uint64_t ref_bytes = ctx.bytes_charged();
      for (size_t i = 0; i < gov_baseline.size(); ++i) {
        if (!gov_baseline[i].ok() &&
            gov_baseline[i].status().code() == StatusCode::kExecError) {
          break;  // a limit tripped; the reference has no governor
        }
        ASSERT_EQ(reference::DiffByKey(gov_baseline[i], reference_run[i]), "")
            << tag << " governed vs reference op " << i;
      }

      for (size_t m = 1; m < std::size(kModes); ++m) {
        SetMode(kModes[m]);
        const std::vector<Result<ExtendedRelation>> gov_got =
            run_governed();
        ExpectOutcomesMatch(gov_baseline, gov_got, /*eps=*/0.0,
                            /*compare_messages=*/true,
                            tag + " governed mode " + kModes[m].name);
        // When no limit tripped, the charge totals themselves must be
        // mode-invariant (the determinism the trip messages rely on).
        if (!ctx.failed()) {
          EXPECT_EQ(ctx.rows_charged(), ref_rows)
              << tag << " governed mode " << kModes[m].name;
          EXPECT_EQ(ctx.bytes_charged(), ref_bytes)
              << tag << " governed mode " << kModes[m].name;
        }
        if (::testing::Test::HasFatalFailure()) {
          RestoreDefaults();
          return;
        }
      }
    }
  }
  RestoreDefaults();
}

// ---------------------------------------------------------------------------
// Random EQL statements through the query engine, differential across
// {optimized, unoptimized} x {fused, unfused} x {SIMD, scalar} x
// {threads 1, 7}, and against the reference evaluator walking the
// unoptimized plan. Pushdown must not change the result set by a single
// bit nor reorder which error fires first. A join's output is in
// FROM-major order whatever hash build side or join order the optimizer
// picks, so every shape, joins included, compares with strict row order.

/// Attribute layout of one EQL-visible relation: a single int/string
/// key, definite int attributes, uncertain attributes over small
/// symbolic frames. `prefix` keeps attribute names collision-free (or
/// deliberately colliding, to exercise product-schema qualification).
struct EqlRelationSpec {
  std::string key;
  std::vector<std::string> defs;
  std::vector<std::string> uncs;
  std::vector<DomainPtr> domains;
  SchemaPtr schema;
};

EqlRelationSpec MakeEqlSpec(Rng* rng, const std::string& prefix,
                            const std::string& domain_prefix) {
  EqlRelationSpec spec;
  spec.key = prefix + "key";
  std::vector<AttributeDef> attrs;
  attrs.push_back(AttributeDef::Key(spec.key));
  const size_t defs = 1 + rng->Below(2);
  for (size_t d = 0; d < defs; ++d) {
    spec.defs.push_back(prefix + "def" + std::to_string(d));
    attrs.push_back(AttributeDef::Definite(spec.defs.back()));
  }
  const size_t uncs = 1 + rng->Below(2);
  for (size_t u = 0; u < uncs; ++u) {
    spec.uncs.push_back(prefix + "unc" + std::to_string(u));
    spec.domains.push_back(
        RandomDomain(rng, domain_prefix + std::to_string(u)));
    attrs.push_back(AttributeDef::Uncertain(spec.uncs.back(),
                                            spec.domains.back()));
  }
  spec.schema = RelationSchema::Make(std::move(attrs)).value();
  return spec;
}

/// Evidence-literal text over `domain` — 1-2 singleton focals with exact
/// decimal masses, parseable by the EQL tokenizer.
std::string EvidenceLiteralText(Rng* rng, const DomainPtr& domain) {
  const size_t n = domain->size();
  const size_t i = rng->Below(n);
  if (n < 2 || rng->Chance(0.4)) {
    return "[v" + std::to_string(i) + "^1]";
  }
  const size_t j = (i + 1 + rng->Below(n - 1)) % n;
  static constexpr const char* kSplits[][2] = {
      {"0.5", "0.5"}, {"0.25", "0.75"}, {"0.4", "0.6"}, {"0.2", "0.8"}};
  const auto& split = kSplits[rng->Below(std::size(kSplits))];
  return "[v" + std::to_string(i) + "^" + split[0] + ", v" +
         std::to_string(j) + "^" + split[1] + "]";
}

/// One WHERE conjunct over `spec`, displayed under `qualifier` ("R0."
/// when the product schema qualifies this side's names). Occasionally
/// invalid (unknown attribute, constant outside the frame) so the error
/// paths are differentials too.
std::string RandomEqlConjunct(Rng* rng, const EqlRelationSpec& spec,
                              const std::string& qualifier) {
  if (rng->Chance(0.03)) return "no_such_attr IS {v0}";
  static constexpr const char* kOps[] = {"=", "<", "<=", ">", ">="};
  if (!spec.defs.empty() && rng->Chance(0.45)) {
    const std::string attr =
        qualifier + spec.defs[rng->Below(spec.defs.size())];
    if (rng->Chance(0.5)) {
      std::string values = std::to_string(rng->Below(6));
      if (rng->Chance(0.5)) values += ", " + std::to_string(rng->Below(6));
      return attr + " IS {" + values + "}";
    }
    return attr + " " + kOps[rng->Below(std::size(kOps))] + " " +
           std::to_string(rng->Below(6));
  }
  const size_t u = rng->Below(spec.uncs.size());
  const std::string attr = qualifier + spec.uncs[u];
  const DomainPtr& domain = spec.domains[u];
  const size_t n = domain->size();
  switch (rng->Below(3)) {
    case 0: {
      std::string values = "v" + std::to_string(rng->Below(n));
      if (rng->Chance(0.5)) values += ", v" + std::to_string(rng->Below(n));
      if (rng->Chance(0.06)) values += ", zz_outside";
      return attr + " IS {" + values + "}";
    }
    case 1:
      return attr + " " + kOps[rng->Below(std::size(kOps))] + " " +
             EvidenceLiteralText(rng, domain);
    default:
      return attr + " " + kOps[rng->Below(std::size(kOps))] + " v" +
             std::to_string(rng->Below(n));
  }
}

TEST(FuzzDifferentialTest, EqlStatementsAgreeAcrossOptimizerAndModes) {
  struct EqlMode {
    bool optimize;
    bool fuse;
    bool simd;
    size_t threads;
    const char* name;
  };
  // Every mode must match mode 0 row for row, bit for bit. The unfused
  // modes run reference::ExecuteUnfused (the engine's plan without
  // LowerToFusedPipelines).
  static constexpr EqlMode kEqlModes[] = {
      {false, false, true, 1, "unopt"},
      {false, false, false, 7, "unopt/scalar/t7"},
      {true, false, true, 1, "opt/nofuse"},
      {true, true, true, 1, "opt/fused"},
      {true, true, true, 7, "opt/fused/t7"},
      {true, true, false, 1, "opt/fused/scalar"},
  };

  const size_t cases = std::max<size_t>(FuzzCases() / 2, 50);
  for (size_t case_index = 0; case_index < cases; ++case_index) {
    const uint64_t seed = 0xEC1F00DULL + case_index * 6151;
    Rng rng(seed);
    RestoreDefaults();
    SetParallelMaxThreads(1);

    // Catalog: R0/R1 union-compatible, S0 the join partner, T0 a third
    // independent relation for n-way FROM lists — with colliding
    // attribute names half the time (qualified references).
    const bool collide = rng.Chance(0.5);
    const EqlRelationSpec spec_a = MakeEqlSpec(&rng, "", "qa_");
    const EqlRelationSpec spec_b =
        collide ? spec_a : MakeEqlSpec(&rng, "s_", "qb_");
    const EqlRelationSpec spec_c = MakeEqlSpec(&rng, "t_", "qc_");
    // Distinct-name specs need distinct *domains* too (spec_b above),
    // but colliding specs share schema_a wholesale.
    const SchemaPtr schema_b = collide ? spec_a.schema : spec_b.schema;
    const bool string_keys = rng.Chance(0.3);
    // Statement shape up front: n-way shapes (6 = three relations,
    // 7 = four) get small relations, so even an all-PRODUCT chain's
    // flat enumeration stays fuzz-sized.
    const size_t shape = rng.Below(8);
    const bool join_like = shape >= 4;
    const size_t rows = shape >= 6 ? 4 + rng.Below(9) : 8 + rng.Below(32);
    const size_t key_range = 2 * rows + rng.Below(rows);
    Catalog catalog;
    ASSERT_TRUE(catalog
                    .RegisterRelation(RandomRelation(&rng, "R0", spec_a.schema,
                                                     rows, key_range,
                                                     string_keys))
                    .ok());
    ASSERT_TRUE(catalog
                    .RegisterRelation(RandomRelation(&rng, "R1", spec_a.schema,
                                                     rows, key_range,
                                                     string_keys))
                    .ok());
    ASSERT_TRUE(catalog
                    .RegisterRelation(RandomRelation(&rng, "S0", schema_b,
                                                     rows, key_range,
                                                     string_keys))
                    .ok());
    ASSERT_TRUE(catalog
                    .RegisterRelation(RandomRelation(&rng, "T0", spec_c.schema,
                                                     rows, key_range,
                                                     string_keys))
                    .ok());

    // The FROM sources in order, with the qualifier each one's attribute
    // references need (names appearing in several operands are qualified
    // by the product schema).
    struct EqlSource {
      const EqlRelationSpec* spec;
      std::string qual;
    };
    std::vector<EqlSource> sources;
    std::string from;
    switch (shape) {
      case 0:
      case 1:
        from = "R0";
        sources.push_back({&spec_a, ""});
        break;
      case 2:
        from = "R0 UNION R1";
        sources.push_back({&spec_a, ""});
        break;
      case 3:
        from = "R0 INTERSECT R1";
        sources.push_back({&spec_a, ""});
        break;
      case 4:
      case 5: {
        from = shape == 4 ? "R0 JOIN S0" : "R0 PRODUCT S0";
        sources.push_back({&spec_a, collide ? "R0." : ""});
        sources.push_back({collide ? &spec_a : &spec_b,
                           collide ? "S0." : ""});
        break;
      }
      default: {
        // Three or four relations chained with a random mix of comma,
        // JOIN and PRODUCT connectors (one FROM list either way).
        std::vector<std::pair<std::string, EqlSource>> pool = {
            {"R0", {&spec_a, collide ? "R0." : ""}},
            {"S0", {collide ? &spec_a : &spec_b, collide ? "S0." : ""}},
            {"T0", {&spec_c, ""}},
        };
        if (shape == 7) {
          // R0/R1 share every attribute name, so both always qualify.
          pool[0].second.qual = "R0.";
          pool.insert(pool.begin() + 1, {"R1", {&spec_a, "R1."}});
        }
        static constexpr const char* kConnectors[] = {", ", " JOIN ",
                                                      " PRODUCT "};
        for (size_t i = 0; i < pool.size(); ++i) {
          if (i > 0) from += kConnectors[rng.Below(std::size(kConnectors))];
          from += pool[i].first;
          sources.push_back(std::move(pool[i].second));
        }
        break;
      }
    }

    std::vector<std::string> conjuncts;
    if (join_like) {
      // A random spanning-ish set of key-equality edges: each source
      // usually joins one earlier source, so chains, stars and
      // deliberately disconnected (cross) components all occur.
      for (size_t i = 1; i < sources.size(); ++i) {
        if (!rng.Chance(0.75)) continue;
        const size_t anchor = rng.Below(i);
        conjuncts.push_back(sources[anchor].qual + sources[anchor].spec->key +
                            " = " + sources[i].qual + sources[i].spec->key);
      }
    }
    const size_t extra = rng.Below(3) + (conjuncts.empty() ? 1 : 0);
    for (size_t i = 0; i < extra; ++i) {
      const EqlSource& src = sources[rng.Below(sources.size())];
      conjuncts.push_back(RandomEqlConjunct(&rng, *src.spec, src.qual));
    }
    if (rng.Chance(0.25)) conjuncts.clear();

    std::string stmt = "SELECT ";
    if (rng.Chance(0.45) && !spec_a.uncs.empty()) {
      // Project away at least one column (with keys implicit): the
      // pruning rules get real work.
      stmt += sources[0].qual + spec_a.defs.front();
    } else {
      stmt += "*";
    }
    stmt += " FROM " + from;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      stmt += (i == 0 ? " WHERE " : " AND ") + conjuncts[i];
    }
    if (rng.Chance(0.4)) {
      stmt += rng.Chance(0.5) ? " WITH sn >= 0.25" : " WITH sp > 0.4";
      if (rng.Chance(0.3)) stmt += " AND sn <= 0.9";
    }
    if (!join_like && rng.Chance(0.3)) {
      stmt += rng.Chance(0.5) ? " ORDER BY sn DESC" : " ORDER BY sp ASC";
      if (rng.Chance(0.5)) {
        stmt += " LIMIT " + std::to_string(1 + rng.Below(5));
      }
    }
    const std::string tag =
        "eql case " + std::to_string(case_index) + ": " + stmt;

    std::vector<Result<ExtendedRelation>> outcomes;
    for (const EqlMode& mode : kEqlModes) {
      SetBatchSimdEnabled(mode.simd);
      SetParallelMaxThreads(mode.threads);
      QueryEngine engine(&catalog);
      engine.set_optimizer_enabled(mode.optimize);
      outcomes.push_back(
          mode.fuse ? engine.Execute(stmt)
                    : reference::ExecuteUnfused(catalog, stmt, mode.optimize));
    }
    RestoreDefaults();

    ASSERT_EQ(reference::DiffByKey(outcomes[0],
                                   reference::ExecuteQuery(catalog, stmt)),
              "")
        << tag << " [reference]";
    for (size_t m = 1; m < outcomes.size(); ++m) {
      const std::string where = tag + " [" + kEqlModes[m].name + "]";
      ASSERT_EQ(outcomes[0].ok(), outcomes[m].ok())
          << where << "\nref:  " << outcomes[0].status().ToString()
          << "\ngot: " << outcomes[m].status().ToString();
      if (!outcomes[0].ok()) {
        EXPECT_EQ(outcomes[0].status().code(), outcomes[m].status().code())
            << where;
        EXPECT_EQ(outcomes[0].status().message(),
                  outcomes[m].status().message())
            << where;
        continue;
      }
      ExpectRelationsMatch(*outcomes[0], *outcomes[m], /*eps=*/0.0,
                           where + " (order)");
      if (::testing::Test::HasFatalFailure()) return;
    }

    // EXPLAIN must render whenever the statement plans.
    if (outcomes[0].ok()) {
      QueryEngine engine(&catalog);
      auto rendering = engine.Explain(stmt);
      EXPECT_TRUE(rendering.ok()) << tag << ": " << rendering.status();
      auto explained = engine.Execute("EXPLAIN " + stmt);
      ASSERT_TRUE(explained.ok()) << tag << ": " << explained.status();
      EXPECT_GE(explained->size(), 1u) << tag;
    }
  }
  RestoreDefaults();
}

}  // namespace
}  // namespace evident
