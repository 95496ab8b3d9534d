#include "query/optimizer.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/bound_predicate.h"
#include "core/column_store.h"
#include "core/join_plan.h"

namespace evident {
namespace eql {

namespace {

/// Collects the schema positions every attribute reference of `predicate`
/// resolves to. Returns false — telling the caller to leave the plan
/// untouched — on an unresolvable reference or a predicate type the
/// optimizer does not understand.
bool CollectRefIndices(const PredicatePtr& predicate,
                       const RelationSchema& schema,
                       std::vector<size_t>* out) {
  if (const auto* conj =
          dynamic_cast<const AndPredicate*>(predicate.get())) {
    for (const PredicatePtr& child : conj->children()) {
      if (!CollectRefIndices(child, schema, out)) return false;
    }
    return true;
  }
  if (const auto* is_pred =
          dynamic_cast<const IsPredicate*>(predicate.get())) {
    Result<size_t> index = schema.IndexOf(is_pred->attribute());
    if (!index.ok()) return false;
    out->push_back(*index);
    return true;
  }
  if (const auto* theta =
          dynamic_cast<const ThetaPredicate*>(predicate.get())) {
    for (const ThetaOperand* operand : {&theta->lhs(), &theta->rhs()}) {
      if (!operand->is_attribute()) continue;
      Result<size_t> index = schema.IndexOf(operand->attribute());
      if (!index.ok()) return false;
      out->push_back(*index);
    }
    return true;
  }
  return false;
}

/// A structural copy of a (non-conjunction) conjunct with its attribute
/// references renamed through `renames` — how a product-schema conjunct
/// becomes an operand-schema prefilter.
PredicatePtr RewriteAttributeNames(
    const PredicatePtr& predicate,
    const std::unordered_map<std::string, std::string>& renames) {
  if (const auto* is_pred =
          dynamic_cast<const IsPredicate*>(predicate.get())) {
    auto it = renames.find(is_pred->attribute());
    std::vector<Value> values = is_pred->values();
    return Is(it != renames.end() ? it->second : is_pred->attribute(),
              std::move(values));
  }
  if (const auto* theta =
          dynamic_cast<const ThetaPredicate*>(predicate.get())) {
    auto map_operand = [&](const ThetaOperand& operand) {
      if (operand.is_attribute()) {
        auto it = renames.find(operand.attribute());
        if (it != renames.end()) return ThetaOperand::Attr(it->second);
      }
      return operand;
    };
    return Theta(map_operand(theta->lhs()), theta->op(),
                 map_operand(theta->rhs()), theta->semantics());
  }
  return nullptr;
}

/// Inserts a kPrefilter holding `conjuncts_for_side` above `*slot`.
void InsertPrefilter(PlanNodePtr* slot,
                     std::vector<PredicatePtr> conjuncts_for_side) {
  auto prefilter = std::make_unique<PlanNode>();
  prefilter->op = PlanNode::Op::kPrefilter;
  prefilter->schema = (*slot)->schema;
  prefilter->conjuncts = std::move(conjuncts_for_side);
  prefilter->left = std::move(*slot);
  *slot = std::move(prefilter);
}

/// Rule 1 — selection pushdown. Gated on the entire join predicate
/// binding completely: then no conjunct can ever fail to evaluate, so
/// dropping rows early cannot change which error fires first (none can).
/// Runs before operand pruning, while the join's children still carry
/// the operand schemas its product schema was built from.
void TryJoinPushdown(PlanNode* join) {
  if (join->pushdown_applied) return;
  join->pushdown_applied = true;
  if (join->predicate == nullptr || join->schema == nullptr) return;
  if (join->left == nullptr || join->right == nullptr) return;
  if (!BoundPredicate::Bind(join->predicate, join->schema).fully_bound()) {
    return;
  }
  join->predicate_fully_bound = true;

  std::vector<PredicatePtr> conjuncts;
  FlattenConjuncts(join->predicate, &conjuncts);
  const size_t left_count = join->left_attr_count;
  std::vector<PredicatePtr> pushed_left, pushed_right;
  for (const PredicatePtr& conjunct : conjuncts) {
    std::vector<size_t> refs;
    if (!CollectRefIndices(conjunct, *join->schema, &refs) || refs.empty()) {
      continue;  // cross-side, reference-free or opaque: stays put
    }
    bool all_left = true, all_right = true;
    for (size_t i : refs) {
      (i < left_count ? all_right : all_left) = false;
    }
    if (all_left == all_right) continue;  // spans both sides
    PlanNode* child = (all_left ? join->left : join->right).get();
    const size_t offset = all_left ? 0 : left_count;
    std::unordered_map<std::string, std::string> renames;
    bool mapped = true;
    for (size_t i : refs) {
      const size_t local = i - offset;
      if (local >= child->schema->size()) {
        mapped = false;
        break;
      }
      renames.emplace(join->schema->attribute(i).name,
                      child->schema->attribute(local).name);
    }
    if (!mapped) continue;
    PredicatePtr rewritten = RewriteAttributeNames(conjunct, renames);
    if (rewritten == nullptr ||
        !BoundPredicate::Bind(rewritten, child->schema).fully_bound()) {
      continue;
    }
    (all_left ? pushed_left : pushed_right).push_back(std::move(rewritten));
  }

  if (!pushed_left.empty()) {
    InsertPrefilter(&join->left, std::move(pushed_left));
  }
  if (!pushed_right.empty()) {
    InsertPrefilter(&join->right, std::move(pushed_right));
  }
}

/// Rule 1 for n-way joins — the multiway form of TryJoinPushdown, with
/// the identical gate and the identical soundness argument: every
/// conjunct referencing attributes of exactly one operand becomes a
/// prefilter above that operand while staying in the join predicate, so
/// the surviving combinations' membership arithmetic is untouched.
void TryMultiJoinPushdown(PlanNode* join) {
  if (join->pushdown_applied) return;
  join->pushdown_applied = true;
  if (join->predicate == nullptr || join->schema == nullptr) return;
  if (join->operands.size() != join->operand_attr_counts.size()) return;
  if (!BoundPredicate::Bind(join->predicate, join->schema).fully_bound()) {
    return;
  }
  join->predicate_fully_bound = true;

  // Flat product position -> (operand, operand-local position).
  const std::vector<size_t>& counts = join->operand_attr_counts;
  auto locate = [&](size_t flat) {
    size_t op = 0;
    while (op < counts.size() && flat >= counts[op]) {
      flat -= counts[op];
      ++op;
    }
    return std::pair<size_t, size_t>{op, flat};
  };

  std::vector<PredicatePtr> conjuncts;
  FlattenConjuncts(join->predicate, &conjuncts);
  std::vector<std::vector<PredicatePtr>> pushed(join->operands.size());
  for (const PredicatePtr& conjunct : conjuncts) {
    std::vector<size_t> refs;
    if (!CollectRefIndices(conjunct, *join->schema, &refs) || refs.empty()) {
      continue;  // cross-operand, reference-free or opaque: stays put
    }
    const size_t target = locate(refs[0]).first;
    if (target >= join->operands.size()) continue;
    PlanNode* child = join->operands[target].get();
    if (child->schema == nullptr) continue;
    std::unordered_map<std::string, std::string> renames;
    bool single_operand = true;
    for (size_t i : refs) {
      const auto [op, local] = locate(i);
      if (op != target || local >= child->schema->size()) {
        single_operand = false;
        break;
      }
      renames.emplace(join->schema->attribute(i).name,
                      child->schema->attribute(local).name);
    }
    if (!single_operand) continue;
    PredicatePtr rewritten = RewriteAttributeNames(conjunct, renames);
    if (rewritten == nullptr ||
        !BoundPredicate::Bind(rewritten, child->schema).fully_bound()) {
      continue;
    }
    pushed[target].push_back(std::move(rewritten));
  }
  for (size_t i = 0; i < pushed.size(); ++i) {
    if (!pushed[i].empty()) {
      InsertPrefilter(&join->operands[i], std::move(pushed[i]));
    }
  }
}

/// Inserts a name-preserving pruning projection above `*slot` keeping
/// exactly `defs` (a subsequence of the operand's attributes, in schema
/// order).
void InsertPruningProject(PlanNodePtr* slot, std::vector<AttributeDef> defs) {
  std::vector<std::string> names;
  names.reserve(defs.size());
  for (const AttributeDef& def : defs) names.push_back(def.name);
  Result<SchemaPtr> schema = RelationSchema::Make(std::move(defs));
  if (!schema.ok()) return;
  auto project = std::make_unique<PlanNode>();
  project->op = PlanNode::Op::kProject;
  project->schema = std::move(schema).value();
  project->attributes = std::move(names);
  project->keep_name = true;
  project->left = std::move(*slot);
  *slot = std::move(project);
}

/// Rule 2b — prunes one join/product operand down to its keys, the
/// attributes the output or the predicate needs (by product-schema
/// name), and every attribute whose name collides with the other
/// operand (pruning those would change the product schema's
/// qualification). The pruning projection sits *above* any pushdown
/// prefilter: the selective filter runs first — against the catalog's
/// shared column image when the operand is a scan — and the projection
/// then copies only the survivors' kept columns, which is also what the
/// join's product-schema slice ends up splicing.
void PruneOperand(const PlanNode* pair, PlanNodePtr* child_slot,
                  size_t offset,
                  const std::unordered_set<std::string>& needed,
                  const RelationSchema& other_schema) {
  // The operand's attribute layout (the product slice) is beneath any
  // prefilters, which are schema-preserving.
  const PlanNode* operand = child_slot->get();
  while (operand->op == PlanNode::Op::kPrefilter) {
    operand = operand->left.get();
  }
  const SchemaPtr& schema = operand->schema;
  if (schema == nullptr ||
      offset + schema->size() > pair->schema->size()) {
    return;
  }
  std::vector<AttributeDef> kept;
  bool prune = false;
  for (size_t i = 0; i < schema->size(); ++i) {
    const AttributeDef& attr = schema->attribute(i);
    const std::string& product_name = pair->schema->attribute(offset + i).name;
    const bool keep = attr.kind == AttributeKind::kKey ||
                      needed.count(product_name) > 0 ||
                      other_schema.Has(attr.name);
    if (keep) {
      kept.push_back(attr);
    } else {
      prune = true;
    }
  }
  if (!prune || kept.empty()) return;
  InsertPruningProject(child_slot, std::move(kept));
}

/// Rule 2 — projection pruning into a join/product's operands.
void TryPrunePairOperands(PlanNode* project) {
  PlanNode* pair = project->left.get();
  if (pair->schema == nullptr || pair->left == nullptr ||
      pair->right == nullptr) {
    return;
  }
  std::unordered_set<std::string> needed(project->attributes.begin(),
                                         project->attributes.end());
  if (pair->predicate != nullptr) {
    std::vector<size_t> refs;
    if (!CollectRefIndices(pair->predicate, *pair->schema, &refs)) return;
    for (size_t i : refs) needed.insert(pair->schema->attribute(i).name);
  }
  const size_t left_count = pair->op == PlanNode::Op::kJoin
                                ? pair->left_attr_count
                                : (pair->left->schema != nullptr
                                       ? pair->left->schema->size()
                                       : 0);
  if (left_count == 0 || left_count >= pair->schema->size()) return;
  // Original operand schemas (the product slice layout) — reachable
  // through any prefilters pushdown inserted first.
  const PlanNode* left_operand = pair->left.get();
  while (left_operand->op == PlanNode::Op::kPrefilter) {
    left_operand = left_operand->left.get();
  }
  const PlanNode* right_operand = pair->right.get();
  while (right_operand->op == PlanNode::Op::kPrefilter) {
    right_operand = right_operand->left.get();
  }
  if (left_operand->schema == nullptr || right_operand->schema == nullptr) {
    return;
  }
  const SchemaPtr right_schema = right_operand->schema;
  const SchemaPtr left_schema = left_operand->schema;
  PruneOperand(pair, &pair->left, 0, needed, *right_schema);
  PruneOperand(pair, &pair->right, left_count, needed, *left_schema);
}

/// Rule 2a — slides a pruning projection below a selection, so the
/// selection splices only the columns the output or its own predicate
/// need. Sound for any input: the predicate's support does not depend on
/// dropped columns, rows and their order are unchanged, and per-row
/// evaluation errors (if any) fire identically because every referenced
/// attribute is kept (the rule aborts when a reference does not
/// resolve, which also keeps unknown-attribute messages — they embed the
/// schema rendering — byte-identical).
void TryProjectBelowSelect(PlanNode* project) {
  PlanNode* select = project->left.get();
  if (select->left == nullptr || select->left->schema == nullptr) return;
  const SchemaPtr& schema = select->left->schema;
  std::unordered_set<std::string> needed(project->attributes.begin(),
                                         project->attributes.end());
  if (select->predicate != nullptr) {
    std::vector<size_t> refs;
    if (!CollectRefIndices(select->predicate, *schema, &refs)) return;
    for (size_t i : refs) needed.insert(schema->attribute(i).name);
  }
  for (const std::string& name : project->attributes) {
    if (!schema->Has(name)) return;
  }
  std::vector<AttributeDef> kept;
  for (const AttributeDef& attr : schema->attributes()) {
    if (attr.kind == AttributeKind::kKey || needed.count(attr.name) > 0) {
      kept.push_back(attr);
    }
  }
  if (kept.size() == schema->size()) return;
  InsertPruningProject(&select->left, std::move(kept));
  select->schema = select->left->schema;
}

void RewriteNode(PlanNodePtr& node) {
  if (node == nullptr) return;
  if (node->op == PlanNode::Op::kProject && node->left != nullptr) {
    if (node->left->op == PlanNode::Op::kSelect) {
      TryProjectBelowSelect(node.get());
    } else if (node->left->op == PlanNode::Op::kJoin ||
               node->left->op == PlanNode::Op::kProduct) {
      // Pushdown first: it needs the operands' original schemas to map
      // product positions to operand names; pruning then slots its
      // projections below the fresh prefilters.
      if (node->left->op == PlanNode::Op::kJoin) {
        TryJoinPushdown(node->left.get());
      }
      TryPrunePairOperands(node.get());
    }
  }
  if (node->op == PlanNode::Op::kJoin) TryJoinPushdown(node.get());
  if (node->op == PlanNode::Op::kMultiJoin) TryMultiJoinPushdown(node.get());
  RewriteNode(node->left);
  RewriteNode(node->right);
  for (PlanNodePtr& operand : node->operands) RewriteNode(operand);
}

// ---------------------------------------------------------------------------
// Cardinality estimation from column statistics.
//
// Estimates steer join ordering, build sides and the EXPLAIN display —
// never results. They are derived from the per-column TableStatistics
// the base relations' shared column images profile lazily (distinct
// counts, 16-bin sn/sp support histograms) and flow up the plan through
// the classic System-R selectivity model.
// ---------------------------------------------------------------------------

/// Display/steering cap on row estimates.
constexpr double kEstimateCap = static_cast<double>(size_t{1} << 20);

size_t ClampEstimate(double rows) {
  if (!(rows > 0)) return 0;
  if (rows >= kEstimateCap) return size_t{1} << 20;
  return rows < 1 ? 1 : static_cast<size_t>(rows);
}

/// The catalog scan (or fused scan chain) feeding `node`, reached
/// through the row-set-preserving wrappers the planner and optimizer
/// insert; nullptr when the subtree is not scan-rooted.
const PlanNode* BaseScan(const PlanNode* node) {
  while (node != nullptr) {
    switch (node->op) {
      case PlanNode::Op::kPrefilter:
      case PlanNode::Op::kSelect:
      case PlanNode::Op::kProject:
      case PlanNode::Op::kRename:
        node = node->left.get();
        continue;
      case PlanNode::Op::kScan:
      case PlanNode::Op::kFused:
        return node->rel != nullptr ? node : nullptr;
      default:
        return nullptr;
    }
  }
  return nullptr;
}

/// Distinct-count estimate for the attribute named `name` on the base
/// relation beneath `node` (renames are followed; pruning projections
/// preserve names). Product-schema names may carry a relation qualifier
/// ("R.a"); the unqualified suffix is tried when the full name does not
/// resolve against the base schema. Returns 0 when unknown — a
/// non-value attribute, an unresolvable name, or no scan beneath.
uint64_t BaseDistinct(const PlanNode* node, std::string name) {
  while (node != nullptr) {
    switch (node->op) {
      case PlanNode::Op::kPrefilter:
      case PlanNode::Op::kSelect:
      case PlanNode::Op::kProject:
        node = node->left.get();
        continue;
      case PlanNode::Op::kRename:
        if (name == node->rename_to) name = node->rename_from;
        node = node->left.get();
        continue;
      case PlanNode::Op::kScan:
      case PlanNode::Op::kFused: {
        if (node->rel == nullptr || node->rel->schema() == nullptr) return 0;
        const RelationSchema& schema = *node->rel->schema();
        Result<size_t> index = schema.IndexOf(name);
        if (!index.ok()) {
          const size_t dot = name.find('.');
          if (dot == std::string::npos) return 0;
          index = schema.IndexOf(name.substr(dot + 1));
          if (!index.ok()) return 0;
        }
        const TableStatistics& stats = node->rel->columns().statistics();
        if (*index >= stats.attributes.size()) return 0;
        return stats.attributes[*index].distinct;
      }
      default:
        return 0;
    }
  }
  return 0;
}

/// Selectivity of one (non-conjunction) conjunct over the rows `node`
/// produces: equality against a literal keeps 1 of `distinct` values,
/// IS over k named values keeps k of `distinct`, range comparisons the
/// classic 1/3, and anything the model cannot ground (unknown distinct
/// count, attr-to-attr comparison, opaque predicate types) 1/2.
double ConjunctSelectivity(const PlanNode* node, const PredicatePtr& conjunct) {
  if (const auto* is_pred =
          dynamic_cast<const IsPredicate*>(conjunct.get())) {
    const uint64_t d = BaseDistinct(node, is_pred->attribute());
    if (d == 0) return 0.5;
    const double sel =
        static_cast<double>(is_pred->values().size()) / static_cast<double>(d);
    return sel > 1.0 ? 1.0 : sel;
  }
  const auto* theta = dynamic_cast<const ThetaPredicate*>(conjunct.get());
  if (theta == nullptr) return 0.5;
  switch (theta->op()) {
    case ThetaOp::kLt:
    case ThetaOp::kLe:
    case ThetaOp::kGt:
    case ThetaOp::kGe:
      return 1.0 / 3.0;
    case ThetaOp::kEq:
      break;
  }
  const bool lhs_attr = theta->lhs().is_attribute();
  const bool rhs_attr = theta->rhs().is_attribute();
  if (lhs_attr == rhs_attr) return 0.5;  // literal-only or attr-to-attr
  const std::string& attr =
      lhs_attr ? theta->lhs().attribute() : theta->rhs().attribute();
  const uint64_t d = BaseDistinct(node, attr);
  return d == 0 ? 0.5 : 1.0 / static_cast<double>(d);
}

/// Combined selectivity of a whole predicate (its flattened conjuncts
/// multiplied, assuming independence); 1 for null.
double PredicateSelectivity(const PlanNode* node,
                            const PredicatePtr& predicate) {
  if (predicate == nullptr) return 1.0;
  std::vector<PredicatePtr> conjuncts;
  FlattenConjuncts(predicate, &conjuncts);
  double sel = 1.0;
  for (const PredicatePtr& conjunct : conjuncts) {
    sel *= ConjunctSelectivity(node, conjunct);
  }
  return sel;
}

/// Fraction of the base relation's *stored* support passing `threshold`,
/// read off the scan's 16-bin sn/sp histograms. The threshold actually
/// constrains the revised membership, for which the stored support is
/// the best available proxy; bins straddling a bound count fully, so
/// the per-atom fraction over-, never under-estimates. 1 when no
/// scan-rooted statistics are available or the threshold is empty.
double ThresholdSelectivity(const PlanNode* node,
                            const MembershipThreshold& threshold) {
  if (threshold.atoms().empty()) return 1.0;
  const PlanNode* scan = BaseScan(node);
  if (scan == nullptr) return 1.0;
  const TableStatistics& stats = scan->rel->columns().statistics();
  if (stats.row_count == 0 ||
      stats.sn_histogram.size() != TableStatistics::kHistogramBins ||
      stats.sp_histogram.size() != TableStatistics::kHistogramBins) {
    return 1.0;
  }
  double sel = 1.0;
  for (const MembershipThreshold::Atom& atom : threshold.atoms()) {
    const std::vector<uint64_t>& bins =
        atom.field == MembershipThreshold::Field::kSn ? stats.sn_histogram
                                                      : stats.sp_histogram;
    const size_t bound_bin = TableStatistics::BinOf(atom.bound);
    uint64_t passing = 0;
    for (size_t b = 0; b < bins.size(); ++b) {
      const bool keep =
          atom.cmp == MembershipThreshold::Cmp::kGt ||
                  atom.cmp == MembershipThreshold::Cmp::kGe
              ? b >= bound_bin
              : atom.cmp == MembershipThreshold::Cmp::kEq ? b == bound_bin
                                                          : b <= bound_bin;
      if (keep) passing += bins[b];
    }
    sel *= static_cast<double>(passing) / static_cast<double>(stats.row_count);
  }
  return sel;
}

/// The System-R divisor of one equi edge: the larger of the two join
/// attributes' distinct counts, 1 when neither is known (the edge then
/// contributes no reduction — the safe overestimate).
double EdgeDivisor(const PlanNode& node, const JoinEdge& edge,
                   const std::vector<size_t>& counts,
                   const PlanNode* left_op, const PlanNode* right_op) {
  auto flat = [&](size_t op, size_t idx) {
    for (size_t i = 0; i < op; ++i) idx += counts[i];
    return idx;
  };
  const uint64_t dl = BaseDistinct(
      left_op,
      node.schema->attribute(flat(edge.left_operand, edge.left_index)).name);
  const uint64_t dr = BaseDistinct(
      right_op,
      node.schema->attribute(flat(edge.right_operand, edge.right_index)).name);
  const uint64_t d = std::max(dl, dr);
  return d == 0 ? 1.0 : static_cast<double>(d);
}

/// System-R meets the zone maps: when a filter sits directly on a
/// partitioned scan, rows of partitions its conjuncts refute can never
/// survive, so the unpruned row sum is a hard cap on the selectivity
/// estimate. Returns SIZE_MAX (no cap) when the child is not a
/// partitioned scan.
size_t UnprunedRowCap(const PlanNode* child,
                      const std::vector<PredicatePtr>& conjuncts) {
  if (child == nullptr || child->op != PlanNode::Op::kScan ||
      child->rel == nullptr || child->rel->schema() == nullptr) {
    return std::numeric_limits<size_t>::max();
  }
  const auto& parts = child->rel->columns().partitions();
  if (parts.empty()) return std::numeric_limits<size_t>::max();
  std::vector<FilterStage> stages;
  stages.reserve(conjuncts.size());
  for (const PredicatePtr& conjunct : conjuncts) {
    if (conjunct == nullptr) continue;
    stages.emplace_back();
    stages.back().bound = BoundPredicate::Bind(conjunct, child->rel->schema());
  }
  size_t rows = 0;
  for (const auto& zone : parts) {
    if (!StagesRefutePartition(stages, zone)) {
      rows += zone.end_row - zone.begin_row;
    }
  }
  return rows;
}

size_t AnnotateEstimates(PlanNode* node) {
  if (node == nullptr) return 0;
  const size_t l = AnnotateEstimates(node->left.get());
  const size_t r = AnnotateEstimates(node->right.get());
  std::vector<size_t> operand_rows;
  operand_rows.reserve(node->operands.size());
  for (PlanNodePtr& operand : node->operands) {
    operand_rows.push_back(AnnotateEstimates(operand.get()));
  }
  size_t estimate = 0;
  switch (node->op) {
    case PlanNode::Op::kScan:
      estimate = node->rel != nullptr ? node->rel->size() : 0;
      break;
    case PlanNode::Op::kSelect:
      estimate = ClampEstimate(
          static_cast<double>(l) *
          PredicateSelectivity(node->left.get(), node->predicate) *
          ThresholdSelectivity(node->left.get(), node->threshold));
      estimate = std::min(estimate,
                          UnprunedRowCap(node->left.get(), {node->predicate}));
      break;
    case PlanNode::Op::kPrefilter: {
      double sel = 1.0;
      for (const PredicatePtr& conjunct : node->conjuncts) {
        sel *= ConjunctSelectivity(node->left.get(), conjunct);
      }
      estimate = ClampEstimate(static_cast<double>(l) * sel);
      estimate = std::min(estimate,
                          UnprunedRowCap(node->left.get(), node->conjuncts));
      break;
    }
    case PlanNode::Op::kProject:
    case PlanNode::Op::kRename:
    case PlanNode::Op::kFused:
      estimate = l;
      break;
    case PlanNode::Op::kUnion:
    case PlanNode::Op::kMerge:
      estimate = l + r;
      break;
    case PlanNode::Op::kIntersect:
      estimate = std::min(l, r);
      break;
    case PlanNode::Op::kJoin:
    case PlanNode::Op::kProduct: {
      double est = static_cast<double>(l) * static_cast<double>(r);
      // Each definite equi edge keeps ~1/max(distinct) of the pairs.
      // Non-equi conjuncts contribute nothing here: their single-side
      // parts already shrank the operand estimates via prefilters.
      if (node->predicate != nullptr && node->schema != nullptr &&
          node->left_attr_count > 0 &&
          node->left_attr_count < node->schema->size()) {
        const std::vector<size_t> counts = {
            node->left_attr_count,
            node->schema->size() - node->left_attr_count};
        for (const JoinEdge& edge :
             AnalyzeJoinPredicate(node->predicate, *node->schema, counts)
                 .edges) {
          const PlanNode* lop =
              edge.left_operand == 0 ? node->left.get() : node->right.get();
          const PlanNode* rop =
              edge.right_operand == 0 ? node->left.get() : node->right.get();
          est /= EdgeDivisor(*node, edge, counts, lop, rop);
        }
      }
      estimate = ClampEstimate(est);
      break;
    }
    case PlanNode::Op::kMultiJoin: {
      double est = 1.0;
      for (size_t rows : operand_rows) est *= static_cast<double>(rows);
      if (node->predicate != nullptr && node->schema != nullptr) {
        for (const JoinEdge& edge :
             AnalyzeJoinPredicate(node->predicate, *node->schema,
                                  node->operand_attr_counts)
                 .edges) {
          est /= EdgeDivisor(*node, edge, node->operand_attr_counts,
                             node->operands[edge.left_operand].get(),
                             node->operands[edge.right_operand].get());
        }
      }
      estimate = ClampEstimate(est);
      break;
    }
  }
  node->estimated_rows = estimate;
  return estimate;
}

/// Rule 4 — cost-ordered left-deep enumeration of an n-way join.
/// Greedy over the equi-edge join graph: start from the smallest
/// estimated operand, repeatedly append the connected operand that
/// keeps the running intermediate estimate smallest, and push operands
/// with no edge into the placed set (pure cross factors) to the end,
/// smallest first. Any order is result-identical (the executor restores
/// FROM-major order and folds memberships in FROM order); the order
/// only bounds the enumeration's intermediate match sets.
void ChooseMultiJoinOrder(PlanNode* join) {
  const size_t n = join->operands.size();
  if (n < 3 || join->schema == nullptr) return;
  const std::vector<JoinEdge> edges =
      AnalyzeJoinPredicate(join->predicate, *join->schema,
                           join->operand_attr_counts)
          .edges;

  std::vector<bool> placed(n, false);
  std::vector<size_t> order;
  order.reserve(n);
  size_t start = 0;
  for (size_t i = 1; i < n; ++i) {
    if (join->operands[i]->estimated_rows <
        join->operands[start]->estimated_rows) {
      start = i;
    }
  }
  order.push_back(start);
  placed[start] = true;
  double current = static_cast<double>(join->operands[start]->estimated_rows);

  while (order.size() < n) {
    size_t best = n;
    double best_rows = std::numeric_limits<double>::infinity();
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      double divisor = 1.0;
      bool connected = false;
      for (const JoinEdge& edge : edges) {
        const bool touches_i =
            edge.left_operand == i || edge.right_operand == i;
        const bool touches_placed = placed[edge.left_operand] ||
                                    placed[edge.right_operand];
        if (!touches_i || !touches_placed) continue;
        connected = true;
        divisor *= EdgeDivisor(*join, edge, join->operand_attr_counts,
                               join->operands[edge.left_operand].get(),
                               join->operands[edge.right_operand].get());
      }
      if (best_connected && !connected) continue;  // cross only as last resort
      const double grown =
          current * static_cast<double>(join->operands[i]->estimated_rows) /
          divisor;
      if ((connected && !best_connected) || grown < best_rows) {
        best = i;
        best_rows = grown;
        best_connected = connected;
      }
    }
    order.push_back(best);
    placed[best] = true;
    current = best_rows < 1.0 ? 1.0 : best_rows;
  }
  join->join_order = std::move(order);
}

void ChooseJoinOrders(PlanNode* node) {
  if (node == nullptr) return;
  ChooseJoinOrders(node->left.get());
  ChooseJoinOrders(node->right.get());
  for (PlanNodePtr& operand : node->operands) {
    ChooseJoinOrders(operand.get());
  }
  if (node->op == PlanNode::Op::kMultiJoin) ChooseMultiJoinOrder(node);
}

/// Rule 3 — explicit hash build sides from the (post-prefilter)
/// estimates. Restricted to joins whose predicate bound completely:
/// flipping the side changes the pair visit order, which must not be
/// able to reorder per-pair evaluation errors. Ties build right, like
/// the executor's run-time size comparison.
void AssignBuildSides(PlanNode* node) {
  if (node == nullptr) return;
  AssignBuildSides(node->left.get());
  AssignBuildSides(node->right.get());
  for (PlanNodePtr& operand : node->operands) {
    AssignBuildSides(operand.get());
  }
  // kMultiJoin needs no choice: its enumeration always builds on the
  // operand joining the match set, in join_order.
  if (node->op != PlanNode::Op::kJoin || !node->predicate_fully_bound) {
    return;
  }
  node->build_side = node->left->estimated_rows < node->right->estimated_rows
                         ? JoinBuildSide::kLeft
                         : JoinBuildSide::kRight;
}

/// Attempts to lower the chain rooted at `slot` into one kFused node.
/// The chain must be (Project|Select|Prefilter)+ bottoming out at a
/// catalog kScan, with every predicate binding completely against the
/// *scan* schema (sound: pruning projections preserve attribute names)
/// and at least one filter stage. On success `slot` becomes the fused
/// node with the original chain as its child; on failure the plan is
/// untouched.
bool TryFuseChain(PlanNodePtr& slot) {
  // Walk down, collecting chain nodes top-down.
  std::vector<const PlanNode*> chain;
  const PlanNode* node = slot.get();
  while (node != nullptr && (node->op == PlanNode::Op::kProject ||
                             node->op == PlanNode::Op::kSelect ||
                             node->op == PlanNode::Op::kPrefilter)) {
    chain.push_back(node);
    node = node->left.get();
  }
  if (chain.empty() || node == nullptr ||
      node->op != PlanNode::Op::kScan || node->rel == nullptr ||
      node->schema == nullptr) {
    return false;
  }
  const PlanNode& scan = *node;

  // Bottom-up: bind each stage against the scan schema, compose the
  // projection (current output attr -> scan position) and the output
  // name the unfused chain would produce.
  std::vector<FilterStage> stages;
  std::vector<size_t> projection(scan.schema->size());
  for (size_t a = 0; a < projection.size(); ++a) projection[a] = a;
  SchemaPtr current = scan.schema;
  std::string name = scan.rel->name();
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const PlanNode& link = **it;
    switch (link.op) {
      case PlanNode::Op::kPrefilter: {
        for (const PredicatePtr& conjunct : link.conjuncts) {
          FilterStage stage;
          stage.bound = BoundPredicate::Bind(conjunct, scan.schema);
          if (!stage.bound.fully_bound()) return false;
          stages.push_back(std::move(stage));
        }
        break;
      }
      case PlanNode::Op::kSelect: {
        FilterStage stage;
        stage.is_select = true;
        stage.threshold = link.threshold;
        if (link.predicate == nullptr) {
          stage.trivial = true;  // threshold-only selection
        } else {
          stage.bound = BoundPredicate::Bind(link.predicate, scan.schema);
          if (!stage.bound.fully_bound()) return false;
        }
        stages.push_back(std::move(stage));
        name = "select(" + name + ")";
        break;
      }
      case PlanNode::Op::kProject: {
        if (link.schema == nullptr) return false;
        std::vector<size_t> composed;
        composed.reserve(link.schema->size());
        for (size_t a = 0; a < link.schema->size(); ++a) {
          Result<size_t> in_child =
              current->IndexOf(link.schema->attribute(a).name);
          if (!in_child.ok()) return false;
          composed.push_back(projection[*in_child]);
        }
        projection = std::move(composed);
        current = link.schema;
        if (!link.keep_name) name = "project(" + name + ")";
        break;
      }
      default:
        return false;
    }
  }
  // Projections contribute no stage, so an empty stage list means a
  // pure-project chain — left to the (already cheap) splice operator.
  if (stages.empty()) return false;

  auto fused = std::make_unique<PlanNode>();
  fused->op = PlanNode::Op::kFused;
  fused->schema = slot->schema;
  fused->estimated_rows = slot->estimated_rows;
  fused->relation = std::move(name);
  fused->rel = scan.rel;
  fused->fused_stages = std::move(stages);
  fused->fused_projection = std::move(projection);
  fused->left = std::move(slot);
  slot = std::move(fused);
  return true;
}

void FuseNode(PlanNodePtr& node) {
  if (node == nullptr) return;
  if (TryFuseChain(node)) return;  // the consumed chain stays as-is below
  FuseNode(node->left);
  FuseNode(node->right);
  for (PlanNodePtr& operand : node->operands) FuseNode(operand);
}

}  // namespace

void OptimizePlan(LogicalPlan* plan) {
  if (plan == nullptr || plan->root == nullptr) return;
  RewriteNode(plan->root);
  AnnotateEstimates(plan->root.get());
  ChooseJoinOrders(plan->root.get());
  AssignBuildSides(plan->root.get());
}

void AnnotatePlanEstimates(LogicalPlan* plan) {
  if (plan == nullptr || plan->root == nullptr) return;
  AnnotateEstimates(plan->root.get());
}

void LowerToFusedPipelines(LogicalPlan* plan) {
  if (plan == nullptr || plan->root == nullptr) return;
  FuseNode(plan->root);
}

}  // namespace eql
}  // namespace evident
