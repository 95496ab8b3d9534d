#include "reference/reference.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "ds/combination.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan.h"

namespace evident {
namespace reference {

namespace {

/// Every tuple's key, in row order.
std::vector<KeyVector> KeysOf(const ExtendedRelation& rel) {
  std::vector<KeyVector> keys;
  for (const ExtendedTuple& t : rel.rows()) keys.push_back(rel.KeyOf(t));
  return keys;
}

/// Nested-loop key lookup: the position of `key` in `keys` (Value
/// equality, so int 1 matches real 1.0), or -1.
long FindKey(const std::vector<KeyVector>& keys, const KeyVector& key) {
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == key) return static_cast<long>(i);
  }
  return -1;
}

std::string KeyText(const KeyVector& key) {
  std::string out;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i) out += ",";
    out += key[i].ToString();
  }
  return out;
}

/// The combined tuple of a matched pair under `options`, or nullopt when
/// the kSkipTuple policy drops the pair.
Result<std::optional<ExtendedTuple>> CombinePair(const RelationSchema& schema,
                                                 const ExtendedTuple& l,
                                                 const ExtendedTuple& r,
                                                 const KeyVector& key,
                                                 const UnionOptions& options) {
  ExtendedTuple merged;
  for (size_t i = 0; i < schema.size(); ++i) {
    const AttributeDef& attr = schema.attribute(i);
    if (attr.kind == AttributeKind::kKey) {
      merged.cells.push_back(l.cells[i]);
      continue;
    }
    if (attr.kind == AttributeKind::kDefinite) {
      const Value& lv = std::get<Value>(l.cells[i]);
      const Value& rv = std::get<Value>(r.cells[i]);
      if (lv == rv ||
          options.on_definite_conflict == DefiniteConflictPolicy::kPreferLeft) {
        merged.cells.push_back(l.cells[i]);
      } else if (options.on_definite_conflict ==
                 DefiniteConflictPolicy::kPreferRight) {
        merged.cells.push_back(r.cells[i]);
      } else {
        return Status::Incompatible("definite attribute '" + attr.name +
                                    "' conflicts on key (" + KeyText(key) +
                                    ")");
      }
      continue;
    }
    Result<EvidenceSet> combined =
        CombineEvidence(std::get<EvidenceSet>(l.cells[i]),
                        std::get<EvidenceSet>(r.cells[i]), options.rule);
    if (combined.ok()) {
      merged.cells.push_back(std::move(combined).value());
      continue;
    }
    if (combined.status().code() != StatusCode::kTotalConflict) {
      return combined.status();
    }
    switch (options.on_total_conflict) {
      case TotalConflictPolicy::kError:
        return Status::TotalConflict("attribute '" + attr.name +
                                     "' of key (" + KeyText(key) +
                                     ") is totally conflicting");
      case TotalConflictPolicy::kSkipTuple:
        return std::optional<ExtendedTuple>();
      case TotalConflictPolicy::kVacuous:
        merged.cells.push_back(EvidenceSet::Vacuous(attr.domain));
        break;
    }
  }
  Result<SupportPair> membership =
      CombineMembership(l.membership, r.membership, options.rule);
  if (!membership.ok()) {
    if (membership.status().code() != StatusCode::kTotalConflict) {
      return membership.status();
    }
    switch (options.on_total_conflict) {
      case TotalConflictPolicy::kError:
        return Status::TotalConflict("membership of key (" + KeyText(key) +
                                     ") is totally conflicting");
      case TotalConflictPolicy::kSkipTuple:
        return std::optional<ExtendedTuple>();
      case TotalConflictPolicy::kVacuous:
        membership = SupportPair::Unknown();
        break;
    }
  }
  merged.membership = *membership;
  return std::optional<ExtendedTuple>(std::move(merged));
}

/// Union (keep_unmatched) or Intersect (!keep_unmatched).
Result<ExtendedRelation> Merge(const ExtendedRelation& left,
                               const ExtendedRelation& right,
                               const UnionOptions& options,
                               bool keep_unmatched, std::string name) {
  EVIDENT_RETURN_NOT_OK(CheckUnionCompatible(left, right));
  ExtendedRelation out(std::move(name), left.schema());
  const std::vector<KeyVector> right_keys = KeysOf(right);
  std::vector<bool> right_matched(right.size(), false);
  for (const ExtendedTuple& l : left.rows()) {
    const KeyVector key = left.KeyOf(l);
    const long j = FindKey(right_keys, key);
    if (j < 0) {
      if (keep_unmatched) EVIDENT_RETURN_NOT_OK(out.Insert(l));
      continue;
    }
    right_matched[j] = true;
    EVIDENT_ASSIGN_OR_RETURN(
        std::optional<ExtendedTuple> merged,
        CombinePair(*left.schema(), l, right.row(j), key, options));
    if (merged) EVIDENT_RETURN_NOT_OK(out.Insert(std::move(*merged)));
  }
  if (keep_unmatched) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (!right_matched[j]) EVIDENT_RETURN_NOT_OK(out.Insert(right.row(j)));
    }
  }
  return out;
}

/// σ̃ on one tuple: F_SS(t, P), the F_TM revision of t's membership,
/// CWA_ER (drop sn = 0) and the threshold Q; a survivor is inserted into
/// `out` with its original cells.
Status SelectInto(const ExtendedTuple& t, const PredicatePtr& predicate,
                  const MembershipThreshold& threshold,
                  ExtendedRelation* out) {
  EVIDENT_ASSIGN_OR_RETURN(SupportPair support,
                           predicate->Evaluate(t, *out->schema()));
  const SupportPair revised = t.membership.Multiply(support);  // F_TM
  if (!revised.HasPositiveSupport()) return Status::OK();      // CWA_ER
  if (!threshold.Accepts(revised)) return Status::OK();
  return out->Insert(ExtendedTuple(t.cells, revised));
}

bool CellsIdentical(const Cell& a, const Cell& b) {
  if (a.index() != b.index()) return false;
  if (CellIsValue(a)) {
    const Value& x = std::get<Value>(a);
    const Value& y = std::get<Value>(b);
    return x.kind() == y.kind() && x == y;
  }
  const EvidenceSet& x = std::get<EvidenceSet>(a);
  const EvidenceSet& y = std::get<EvidenceSet>(b);
  if (!x.CompatibleWith(y)) return false;
  const auto& fx = x.mass().focals();
  const auto& fy = y.mass().focals();
  if (fx.size() != fy.size()) return false;
  for (size_t f = 0; f < fx.size(); ++f) {
    if (!(fx[f].first == fy[f].first) || fx[f].second != fy[f].second) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<ExtendedRelation> Select(const ExtendedRelation& input,
                                const PredicatePtr& predicate,
                                const MembershipThreshold& threshold) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("null selection predicate");
  }
  ExtendedRelation out("select(" + input.name() + ")", input.schema());
  for (const ExtendedTuple& r : input.rows()) {
    EVIDENT_RETURN_NOT_OK(SelectInto(r, predicate, threshold, &out));
  }
  return out;
}

Result<ExtendedRelation> FilterPositiveSupport(
    const ExtendedRelation& input,
    const std::vector<PredicatePtr>& conjuncts) {
  for (const PredicatePtr& conjunct : conjuncts) {
    if (conjunct == nullptr) {
      return Status::InvalidArgument("null prefilter conjunct");
    }
  }
  ExtendedRelation out(input.name(), input.schema());
  for (const ExtendedTuple& r : input.rows()) {
    bool keep = true;
    for (const PredicatePtr& conjunct : conjuncts) {
      EVIDENT_ASSIGN_OR_RETURN(SupportPair support,
                               conjunct->Evaluate(r, *input.schema()));
      if (!support.HasPositiveSupport()) {
        keep = false;
        break;
      }
    }
    if (keep) EVIDENT_RETURN_NOT_OK(out.Insert(r));
  }
  return out;
}

Result<ExtendedRelation> Project(const ExtendedRelation& input,
                                 const std::vector<std::string>& attributes) {
  if (input.schema() == nullptr) {
    return Status::InvalidArgument("projection of a relation without schema");
  }
  std::vector<size_t> indices;
  EVIDENT_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      ResolveProjectionSchema(*input.schema(), attributes, &indices));
  ExtendedRelation out("project(" + input.name() + ")", schema);
  for (const ExtendedTuple& r : input.rows()) {
    ExtendedTuple t;
    for (size_t index : indices) t.cells.push_back(r.cells[index]);
    t.membership = r.membership;
    EVIDENT_RETURN_NOT_OK(out.Insert(std::move(t)));
  }
  return out;
}

Result<ExtendedRelation> Rename(const ExtendedRelation& input,
                                const std::string& from,
                                const std::string& to) {
  if (input.schema() == nullptr) {
    return Status::InvalidArgument("rename on a relation without schema");
  }
  EVIDENT_ASSIGN_OR_RETURN(size_t index, input.schema()->IndexOf(from));
  if (input.schema()->Has(to)) {
    return Status::AlreadyExists("attribute '" + to + "' already exists");
  }
  std::vector<AttributeDef> defs = input.schema()->attributes();
  defs[index].name = to;
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, RelationSchema::Make(defs));
  ExtendedRelation out(input.name(), schema);
  for (const ExtendedTuple& r : input.rows()) {
    EVIDENT_RETURN_NOT_OK(out.Insert(r));
  }
  return out;
}

Result<ExtendedRelation> Product(const ExtendedRelation& left,
                                 const ExtendedRelation& right) {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, MakeProductSchema(left, right));
  return MultiwayJoin({&left, &right}, schema, /*predicate=*/nullptr);
}

Result<ExtendedRelation> Join(const ExtendedRelation& left,
                              const ExtendedRelation& right,
                              const PredicatePtr& predicate,
                              const MembershipThreshold& threshold) {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, MakeProductSchema(left, right));
  if (predicate == nullptr) {
    return Status::InvalidArgument("null selection predicate");
  }
  return MultiwayJoin({&left, &right}, schema, predicate, threshold);
}

Result<ExtendedRelation> MultiwayJoin(
    const std::vector<const ExtendedRelation*>& operands,
    const SchemaPtr& product_schema, const PredicatePtr& predicate,
    const MembershipThreshold& threshold) {
  if (operands.size() < 2) {
    return Status::InvalidArgument(
        "multiway join needs at least two operands");
  }
  std::string name = operands[0]->name();
  for (size_t i = 1; i < operands.size(); ++i) {
    name += " x " + operands[i]->name();
  }
  ExtendedRelation out(predicate != nullptr ? "select(" + name + ")" : name,
                       product_schema);
  bool done = false;
  for (const ExtendedRelation* op : operands) done = done || op->empty();
  // An odometer over the operands in FROM order, rightmost fastest. σ̃ is
  // tuple-wise, so each product tuple is selected as it is enumerated —
  // the same relation as selecting the materialized product, without
  // holding it.
  std::vector<size_t> idx(operands.size(), 0);
  while (!done) {
    ExtendedTuple t;
    for (size_t i = 0; i < operands.size(); ++i) {
      const ExtendedTuple& r = operands[i]->row(idx[i]);
      t.cells.insert(t.cells.end(), r.cells.begin(), r.cells.end());
      t.membership = i == 0 ? r.membership
                            : t.membership.Multiply(r.membership);  // F_TM
    }
    EVIDENT_RETURN_NOT_OK(predicate == nullptr
                              ? out.Insert(std::move(t))
                              : SelectInto(t, predicate, threshold, &out));
    size_t pos = operands.size();
    while (pos > 0 && ++idx[pos - 1] == operands[pos - 1]->size()) {
      idx[pos - 1] = 0;
      --pos;
    }
    done = pos == 0;
  }
  return out;
}

Result<ExtendedRelation> Union(const ExtendedRelation& left,
                               const ExtendedRelation& right,
                               const UnionOptions& options) {
  return Merge(left, right, options, /*keep_unmatched=*/true,
               left.name() + " u " + right.name());
}

Result<ExtendedRelation> Intersect(const ExtendedRelation& left,
                                   const ExtendedRelation& right,
                                   const UnionOptions& options) {
  return Merge(left, right, options, /*keep_unmatched=*/false,
               left.name() + " n " + right.name());
}

Result<ExtendedRelation> MergeTuples(const ExtendedRelation& left,
                                     const ExtendedRelation& right,
                                     const MatchingInfo& matching,
                                     const UnionOptions& options) {
  if (left.schema() == nullptr || right.schema() == nullptr ||
      !left.schema()->UnionCompatibleWith(*right.schema())) {
    return Status::Incompatible(
        "tuple merging requires union-compatible relations");
  }
  ExtendedRelation rekeyed(right.name(), right.schema());
  const std::vector<KeyVector> left_keys = KeysOf(left);
  std::vector<bool> covered(right.size(), false);
  std::vector<KeyVector> matched_left_keys;
  for (const TupleMatch& m : matching.matches) {
    if (m.left_row >= left.size() || m.right_row >= right.size()) {
      return Status::InvalidArgument("matching references rows out of range");
    }
    if (covered[m.right_row]) {
      return Status::InvalidArgument("matching assigns a right row twice");
    }
    covered[m.right_row] = true;
    ExtendedTuple t = right.row(m.right_row);
    const ExtendedTuple& l = left.row(m.left_row);
    for (size_t k : right.schema()->key_indices()) t.cells[k] = l.cells[k];
    matched_left_keys.push_back(left.KeyOf(l));
    EVIDENT_RETURN_NOT_OK(rekeyed.Insert(std::move(t)));
  }
  for (size_t j : matching.unmatched_right) {
    if (j >= right.size()) {
      return Status::InvalidArgument("matching references rows out of range");
    }
    if (covered[j]) {
      return Status::InvalidArgument("row is both matched and unmatched");
    }
    covered[j] = true;
    const KeyVector key = right.KeyOf(right.row(j));
    bool matched_key = false;
    for (const KeyVector& k : matched_left_keys) {
      matched_key = matched_key || k == key;
    }
    if (FindKey(left_keys, key) >= 0 && !matched_key) {
      return Status::InvalidArgument(
          "unmatched right tuple shares key with a left tuple");
    }
    EVIDENT_RETURN_NOT_OK(rekeyed.Insert(right.row(j)));
  }
  for (size_t j = 0; j < right.size(); ++j) {
    if (!covered[j]) {
      return Status::InvalidArgument("matching info does not cover a row");
    }
  }
  return reference::Union(left, rekeyed, options);
}

namespace {

Result<ExtendedRelation> ExecuteNode(const eql::PlanNode& node) {
  using Op = eql::PlanNode::Op;
  std::vector<ExtendedRelation> inputs;
  for (const eql::PlanNode* child : {node.left.get(), node.right.get()}) {
    if (child == nullptr) continue;
    EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation input, ExecuteNode(*child));
    inputs.push_back(std::move(input));
  }
  switch (node.op) {
    case Op::kScan:
      return *node.rel;
    case Op::kSelect:
      // A threshold-only selection has support (1,1): the engine's 0 = 0.
      return reference::Select(
          inputs[0],
          node.predicate != nullptr
              ? node.predicate
              : Theta(ThetaOperand::LitValue(Value(int64_t{0})), ThetaOp::kEq,
                      ThetaOperand::LitValue(Value(int64_t{0}))),
          node.threshold);
    case Op::kProject: {
      EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation out,
                               reference::Project(inputs[0], node.attributes));
      if (node.keep_name) out.set_name(inputs[0].name());
      return out;
    }
    case Op::kJoin:
      return reference::Join(inputs[0], inputs[1], node.predicate,
                             node.threshold);
    case Op::kProduct:
      return reference::Product(inputs[0], inputs[1]);
    case Op::kUnion:
      return reference::Union(inputs[0], inputs[1], node.options);
    case Op::kIntersect:
      return reference::Intersect(inputs[0], inputs[1], node.options);
    case Op::kRename:
      return reference::Rename(inputs[0], node.rename_from, node.rename_to);
    case Op::kMerge:
      return reference::MergeTuples(inputs[0], inputs[1], node.matching,
                                    node.options);
    case Op::kMultiJoin: {
      std::vector<ExtendedRelation> operands;
      std::vector<const ExtendedRelation*> pointers;
      for (const auto& operand : node.operands) {
        EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation input,
                                 ExecuteNode(*operand));
        operands.push_back(std::move(input));
      }
      for (const ExtendedRelation& operand : operands) {
        pointers.push_back(&operand);
      }
      return reference::MultiwayJoin(pointers, node.schema, node.predicate,
                                     node.threshold);
    }
    case Op::kPrefilter:
    case Op::kFused:
      break;
  }
  return Status::Internal("optimizer node in an unoptimized plan");
}

}  // namespace

Result<ExtendedRelation> ExecuteQuery(const Catalog& catalog,
                                      const std::string& eql) {
  EVIDENT_ASSIGN_OR_RETURN(eql::ParsedQuery query, ParseQuery(eql));
  if (query.explain) return Status::InvalidArgument("EXPLAIN has no result");
  EVIDENT_ASSIGN_OR_RETURN(eql::LogicalPlan plan,
                           eql::BuildPlan(query, &catalog, UnionOptions()));
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation result, ExecuteNode(*plan.root));
  // ORDER BY sn/sp: a stable ranking; LIMIT keeps the first rows.
  std::vector<ExtendedTuple> rows = result.rows();
  if (plan.order_by.field != eql::OrderBy::Field::kNone) {
    const bool by_sn = plan.order_by.field == eql::OrderBy::Field::kSn;
    const bool desc = plan.order_by.descending;
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const ExtendedTuple& a, const ExtendedTuple& b) {
                       const double xa = by_sn ? a.membership.sn
                                               : a.membership.sp;
                       const double xb = by_sn ? b.membership.sn
                                               : b.membership.sp;
                       return desc ? xa > xb : xa < xb;
                     });
  }
  if (plan.limit != 0 && rows.size() > plan.limit) rows.resize(plan.limit);
  ExtendedRelation out(result.name(), result.schema());
  for (ExtendedTuple& t : rows) EVIDENT_RETURN_NOT_OK(out.Insert(std::move(t)));
  return out;
}

Result<ExtendedRelation> ExecuteUnfused(const Catalog& catalog,
                                        const std::string& eql,
                                        bool optimize) {
  EVIDENT_ASSIGN_OR_RETURN(eql::ParsedQuery query, ParseQuery(eql));
  EVIDENT_ASSIGN_OR_RETURN(eql::LogicalPlan plan,
                           eql::BuildPlan(query, &catalog, UnionOptions()));
  if (optimize) eql::OptimizePlan(&plan);
  return eql::ExecutePlan(plan);
}

namespace {

/// "" when tuples `g` and `w` have bit-identical memberships and cells.
std::string DiffTuple(const ExtendedTuple& g, const ExtendedTuple& w,
                      const std::string& where) {
  if (g.membership.sn != w.membership.sn ||
      g.membership.sp != w.membership.sp) {
    return "membership of " + where + " differs: " +
           g.membership.ToString(17) + " vs " + w.membership.ToString(17);
  }
  if (g.cells.size() != w.cells.size()) return "arity of " + where + " differs";
  for (size_t c = 0; c < w.cells.size(); ++c) {
    if (!CellsIdentical(g.cells[c], w.cells[c])) {
      return "cell " + std::to_string(c) + " of " + where + " differs: " +
             CellToString(g.cells[c], 17) + " vs " +
             CellToString(w.cells[c], 17);
    }
  }
  return "";
}

/// Outcome, status-code and shape agreement shared by both comparators;
/// sets *done when nothing is left to compare.
std::string DiffShape(const Result<ExtendedRelation>& a,
                      const Result<ExtendedRelation>& b, bool* done) {
  *done = true;
  if (a.ok() != b.ok() ||
      (!a.ok() && a.status().code() != b.status().code())) {
    return "outcome differs: " + a.status().ToString() + " vs " +
           b.status().ToString();
  }
  if (!a.ok()) return "";
  if (!a->schema()->Equals(*b->schema())) {
    return "schema differs: " + a->schema()->ToString() + " vs " +
           b->schema()->ToString();
  }
  if (a->size() != b->size()) {
    return "cardinality differs: " + std::to_string(a->size()) + " vs " +
           std::to_string(b->size());
  }
  *done = false;
  return "";
}

}  // namespace

std::string DiffByKey(const Result<ExtendedRelation>& engine,
                      const Result<ExtendedRelation>& expected) {
  bool done;
  const std::string shape = DiffShape(engine, expected, &done);
  if (done) return shape.empty() ? "" : "engine vs reference: " + shape;
  for (const ExtendedTuple& w : expected->rows()) {
    const KeyVector key = expected->KeyOf(w);
    const std::string where = "key (" + KeyText(key) + ")";
    const Result<size_t> i = engine->FindByKey(key);
    if (!i.ok()) return where + " missing from the engine";
    const std::string diff = DiffTuple(engine->row(*i), w, where);
    if (!diff.empty()) return "engine vs reference: " + diff;
  }
  return "";
}

std::string DiffInOrder(const Result<ExtendedRelation>& a,
                        const Result<ExtendedRelation>& b) {
  bool done;
  const std::string shape = DiffShape(a, b, &done);
  if (done) {
    if (shape.empty() && !a.ok() &&
        a.status().message() != b.status().message()) {
      return "error message differs: " + a.status().ToString() + " vs " +
             b.status().ToString();
    }
    return shape;
  }
  for (size_t i = 0; i < a->size(); ++i) {
    const std::string diff =
        DiffTuple(a->row(i), b->row(i), "row " + std::to_string(i));
    if (!diff.empty()) return diff;
  }
  return "";
}

}  // namespace reference
}  // namespace evident
