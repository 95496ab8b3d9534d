#include "query/plan.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "core/query_context.h"
#include "integration/tuple_merger.h"
#include "text/evidence_literal.h"

namespace evident {
namespace eql {

namespace {

/// Binds a raw θ-operand. Evidence literals need a frame: they borrow the
/// domain of the attribute on the other side of the comparison.
Result<ThetaOperand> BindOperand(const RawOperand& raw,
                                 const RawOperand& other,
                                 const RelationSchema& schema) {
  switch (raw.kind) {
    case RawOperand::Kind::kAttribute: {
      EVIDENT_RETURN_NOT_OK(schema.IndexOf(raw.text).status());
      return ThetaOperand::Attr(raw.text);
    }
    case RawOperand::Kind::kValue:
      return ThetaOperand::LitValue(Value::Parse(raw.text));
    case RawOperand::Kind::kEvidenceLiteral: {
      if (other.kind != RawOperand::Kind::kAttribute) {
        return Status::InvalidArgument(
            "an evidence literal needs an attribute on the other side of "
            "the comparison to determine its domain: " +
            raw.text);
      }
      EVIDENT_ASSIGN_OR_RETURN(size_t index, schema.IndexOf(other.text));
      const AttributeDef& attr = schema.attribute(index);
      if (!attr.is_uncertain()) {
        return Status::InvalidArgument(
            "evidence literal compared against definite attribute '" +
            attr.name + "'");
      }
      EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es,
                               ParseEvidenceLiteral(attr.domain, raw.text));
      return ThetaOperand::Lit(std::move(es));
    }
  }
  return Status::Internal("unreachable operand kind");
}

/// Binds the WHERE conjunction against `schema`; nullptr when empty.
Result<PredicatePtr> BindWhere(const ParsedQuery& query,
                               const RelationSchema& schema) {
  if (query.where.empty()) return PredicatePtr(nullptr);
  std::vector<PredicatePtr> conjuncts;
  for (const Condition& cond : query.where) {
    if (const auto* is_cond = std::get_if<IsCondition>(&cond)) {
      EVIDENT_RETURN_NOT_OK(schema.IndexOf(is_cond->attribute).status());
      std::vector<Value> values;
      values.reserve(is_cond->values.size());
      for (const std::string& text : is_cond->values) {
        values.push_back(Value::Parse(text));
      }
      conjuncts.push_back(Is(is_cond->attribute, std::move(values)));
    } else {
      const auto& theta = std::get<ThetaCondition>(cond);
      EVIDENT_ASSIGN_OR_RETURN(ThetaOperand lhs,
                               BindOperand(theta.lhs, theta.rhs, schema));
      EVIDENT_ASSIGN_OR_RETURN(ThetaOperand rhs,
                               BindOperand(theta.rhs, theta.lhs, schema));
      conjuncts.push_back(Theta(std::move(lhs), theta.op, std::move(rhs)));
    }
  }
  if (conjuncts.size() == 1) return conjuncts.front();
  return And(std::move(conjuncts));
}

/// The FROM list's operand relations resolved against one catalog
/// snapshot, in FROM order; the single home of catalog lookups so every
/// source shape reports missing relations identically. The returned raw
/// pointers live as long as the snapshot — the plan pins it.
Result<std::vector<const ExtendedRelation*>> ResolveOperands(
    const CatalogSnapshot& snapshot, const FromClause& from) {
  std::vector<const ExtendedRelation*> operands;
  operands.reserve(from.relations.size());
  for (const std::string& name : from.relations) {
    EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* rel,
                             snapshot.GetRelation(name));
    operands.push_back(rel);
  }
  return operands;
}

PlanNodePtr MakeScan(const std::string& name, const ExtendedRelation* rel) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanNode::Op::kScan;
  node->relation = name;
  node->rel = rel;
  node->schema = rel->schema();
  return node;
}

}  // namespace

Result<LogicalPlan> BuildPlan(const ParsedQuery& query, const Catalog* catalog,
                              const UnionOptions& union_options) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("query engine has no catalog");
  }
  // Pin the current catalog version: every scan pointer below resolves
  // against this snapshot, and the plan keeps it alive, so a concurrent
  // RegisterRelation(replace=true) cannot invalidate an in-flight (or
  // cached) plan.
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog->Snapshot();
  EVIDENT_ASSIGN_OR_RETURN(std::vector<const ExtendedRelation*> rels,
                           ResolveOperands(*snapshot, query.from));
  LogicalPlan plan;
  plan.snapshot = std::move(snapshot);
  const bool join_like = query.from.op == SourceOp::kProduct ||
                         query.from.op == SourceOp::kJoin;

  if (join_like && rels.size() >= 3) {
    // n-way FROM list: one flat kMultiJoin node over the FROM-order
    // scans. The executor enumerates it by pairwise hash joins in the
    // node's join_order (identity here; the optimizer may reorder it),
    // with any order producing the identical result.
    EVIDENT_ASSIGN_OR_RETURN(SchemaPtr product_schema,
                             MakeMultiwayProductSchema(rels));
    EVIDENT_ASSIGN_OR_RETURN(PredicatePtr predicate,
                             BindWhere(query, *product_schema));
    auto node = std::make_unique<PlanNode>();
    node->op = PlanNode::Op::kMultiJoin;
    node->schema = product_schema;
    for (size_t i = 0; i < rels.size(); ++i) {
      node->operands.push_back(MakeScan(query.from.relations[i], rels[i]));
      node->operand_attr_counts.push_back(rels[i]->schema()->size());
      node->join_order.push_back(i);
    }
    if (predicate != nullptr) {
      node->predicate = std::move(predicate);
      node->threshold = query.with;
      plan.root = std::move(node);
    } else {
      // Pure n-way product; a WITH clause without WHERE thresholds the
      // (unchanged) membership via a select wrapper, like the binary
      // shapes below.
      plan.root = std::move(node);
      if (!query.with.atoms().empty()) {
        auto select = std::make_unique<PlanNode>();
        select->op = PlanNode::Op::kSelect;
        select->schema = plan.root->schema;
        select->threshold = query.with;
        select->left = std::move(plan.root);
        plan.root = std::move(select);
      }
    }
  } else if (join_like && !query.where.empty()) {
    // Join dispatch: bind WHERE against the product *schema* and plan a
    // join node, which hash-partitions on any definite equi-conjunct
    // instead of materializing |L|·|R| product tuples (falling back to
    // product + selection when there is none). JOIN is product +
    // WHERE-as-join-condition (the paper's ⋈̃ = σ̃∘×̃); the distinction
    // is purely syntactic sugar.
    EVIDENT_ASSIGN_OR_RETURN(
        SchemaPtr product_schema,
        MakeProductSchema(*rels[0], *rels[1]));
    EVIDENT_ASSIGN_OR_RETURN(PredicatePtr predicate,
                             BindWhere(query, *product_schema));
    auto join = std::make_unique<PlanNode>();
    join->op = PlanNode::Op::kJoin;
    join->schema = product_schema;
    join->left = MakeScan(query.from.relations[0], rels[0]);
    join->right = MakeScan(query.from.relations[1], rels[1]);
    join->predicate = std::move(predicate);
    join->threshold = query.with;
    join->left_attr_count = rels[0]->schema()->size();
    plan.root = std::move(join);
  } else {
    switch (query.from.op) {
      case SourceOp::kScan:
        plan.root = MakeScan(query.from.relations[0], rels[0]);
        break;
      case SourceOp::kUnion:
      case SourceOp::kIntersect: {
        EVIDENT_RETURN_NOT_OK(
            CheckUnionCompatible(*rels[0], *rels[1]));
        auto node = std::make_unique<PlanNode>();
        node->op = query.from.op == SourceOp::kUnion
                       ? PlanNode::Op::kUnion
                       : PlanNode::Op::kIntersect;
        node->schema = rels[0]->schema();
        node->left = MakeScan(query.from.relations[0], rels[0]);
        node->right = MakeScan(query.from.relations[1], rels[1]);
        node->options = union_options;
        plan.root = std::move(node);
        break;
      }
      case SourceOp::kProduct:
      case SourceOp::kJoin: {
        EVIDENT_ASSIGN_OR_RETURN(
            SchemaPtr product_schema,
            MakeProductSchema(*rels[0], *rels[1]));
        auto node = std::make_unique<PlanNode>();
        node->op = PlanNode::Op::kProduct;
        node->schema = product_schema;
        node->left = MakeScan(query.from.relations[0], rels[0]);
        node->right = MakeScan(query.from.relations[1], rels[1]);
        plan.root = std::move(node);
        break;
      }
    }
    EVIDENT_ASSIGN_OR_RETURN(PredicatePtr predicate,
                             BindWhere(query, *plan.root->schema));
    if (predicate != nullptr || !query.with.atoms().empty()) {
      // A WITH clause without WHERE still thresholds the (unchanged)
      // membership; the executor models that as selection with an
      // always-true predicate.
      auto select = std::make_unique<PlanNode>();
      select->op = PlanNode::Op::kSelect;
      select->schema = plan.root->schema;
      select->predicate = std::move(predicate);
      select->threshold = query.with;
      select->left = std::move(plan.root);
      plan.root = std::move(select);
    }
  }

  if (!query.select.empty()) {
    // Implicitly retain key attributes (the paper's projection always
    // carries the key + membership).
    std::vector<std::string> attrs;
    for (size_t key_index : plan.root->schema->key_indices()) {
      const std::string& key_name =
          plan.root->schema->attribute(key_index).name;
      bool listed = false;
      for (const std::string& a : query.select) {
        if (a == key_name) listed = true;
      }
      if (!listed) attrs.push_back(key_name);
    }
    attrs.insert(attrs.end(), query.select.begin(), query.select.end());
    EVIDENT_ASSIGN_OR_RETURN(
        SchemaPtr projected,
        ResolveProjectionSchema(*plan.root->schema, attrs));
    auto project = std::make_unique<PlanNode>();
    project->op = PlanNode::Op::kProject;
    project->schema = std::move(projected);
    project->attributes = std::move(attrs);
    project->left = std::move(plan.root);
    plan.root = std::move(project);
  }

  plan.order_by = query.order_by;
  plan.limit = query.limit;
  return plan;
}

namespace {

/// A mapped column image defers its per-partition semantic checks until
/// first read; any operator consuming a scan's rows must drive them
/// first. The filter pass (FilterColumns: select, prefilter, fused
/// pipelines and row-list join operands) verifies only the partitions it
/// keeps; every other consumer gets the full sweep here.
Status EnsureScanVerified(const ExtendedRelation& rel) {
  return rel.columns().EnsureAllVerified();
}

/// Runs a kFused node's stages as one filter pass over its scan's shared
/// column image and charges the node's output — the one charge a fused
/// pipeline makes, whatever chain it replaced.
Result<FilteredRows> FilterFusedScan(const PlanNode& node) {
  EVIDENT_ASSIGN_OR_RETURN(
      FilteredRows kept, FilterColumns(node.rel->columns(), node.fused_stages));
  if (QueryContext* const ctx = CurrentQueryContext()) {
    EVIDENT_RETURN_NOT_OK(ctx->ChargeOutput(*node.schema, kept.rows.size()));
  }
  return kept;
}

/// Executes a kFused node: the filter pass, then a single splice of the
/// surviving rows' projected columns. No intermediate relation is built
/// per chain node, and the output is bit-identical to executing the
/// original chain: the stages evaluate with the same bound kernels in
/// the same bottom-up order, membership revision multiplies the
/// identical factors in the identical sequence, and the splice visits
/// survivors in ascending row order exactly like each chain operator's
/// keep list would.
Result<ExtendedRelation> ExecuteFusedPipeline(const PlanNode& node) {
  EVIDENT_ASSIGN_OR_RETURN(const FilteredRows kept, FilterFusedScan(node));
  return ExtendedRelation::AdoptColumns(ColumnStore::SpliceRows(
      node.rel->columns(), node.schema, node.relation, node.fused_projection,
      kept.rows, kept.memberships));
}

/// True when a join operand can be handed to the join executor as row
/// ids of its catalog relation instead of being spliced: a kFused node
/// with prefilter stages only, the identity projection and the scan's
/// name, i.e. the same schema, memberships and name as the catalog
/// relation and a subset of its rows.
bool IsRowListOperand(const PlanNode& child) {
  if (child.op != PlanNode::Op::kFused) return false;
  if (child.relation != child.rel->name()) return false;
  for (const FilterStage& stage : child.fused_stages) {
    if (stage.is_select) return false;
  }
  const std::vector<size_t>& projection = child.fused_projection;
  if (projection.size() != child.rel->schema()->size()) return false;
  for (size_t a = 0; a < projection.size(); ++a) {
    if (projection[a] != a) return false;
  }
  return true;
}

/// Executes the tree bottom-up. Scan nodes hand out the catalog relation
/// by reference (filtered scans select against the catalog's cached
/// column image in place); every other node's result is owned in a deque
/// for stable addresses.
class PlanExecutor {
 public:
  Result<const ExtendedRelation*> Exec(const PlanNode& node) {
    if (node.op == PlanNode::Op::kScan) {
      EVIDENT_RETURN_NOT_OK(EnsureScanVerified(*node.rel));
      return node.rel;
    }
    EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation result, ExecOwned(node));
    results_.push_back(std::move(result));
    return &results_.back();
  }

  /// Executes a join operand. A row-list operand (IsRowListOperand)
  /// runs its filter pass in its own slot — charging its output there,
  /// before the join runs — and hands the survivors over in `*rows`
  /// (`*listed` then points at them), so the join reads the catalog
  /// relation in place; any other operand executes as usual and takes
  /// part whole.
  Result<const ExtendedRelation*> ExecJoinOperand(
      const PlanNode& child, std::vector<uint32_t>* rows,
      const std::vector<uint32_t>** listed) {
    if (!IsRowListOperand(child)) return Exec(child);
    EVIDENT_ASSIGN_OR_RETURN(FilteredRows kept, FilterFusedScan(child));
    *rows = std::move(kept.rows);
    *listed = rows;
    return child.rel;
  }

  Result<ExtendedRelation> ExecOwned(const PlanNode& node) {
    switch (node.op) {
      case PlanNode::Op::kScan:
        // Only reached when the scan is the whole plan; the result is a
        // copy of the catalog relation (sharing its column image).
        EVIDENT_RETURN_NOT_OK(EnsureScanVerified(*node.rel));
        return *node.rel;
      case PlanNode::Op::kSelect: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* input,
                                 Exec(*node.left));
        PredicatePtr predicate =
            node.predicate != nullptr
                ? node.predicate
                : Theta(ThetaOperand::LitValue(Value(int64_t{0})),
                        ThetaOp::kEq,
                        ThetaOperand::LitValue(Value(int64_t{0})));
        return Select(*input, predicate, node.threshold);
      }
      case PlanNode::Op::kPrefilter: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* input,
                                 Exec(*node.left));
        return FilterPositiveSupport(*input, node.conjuncts);
      }
      case PlanNode::Op::kProject: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* input,
                                 Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation projected,
                                 Project(*input, node.attributes));
        if (node.keep_name) projected.set_name(input->name());
        return projected;
      }
      case PlanNode::Op::kJoin: {
        // Children execute left before right.
        std::vector<uint32_t> rows[2];
        const std::vector<uint32_t>* listed[2] = {nullptr, nullptr};
        const PlanNode* children[2] = {node.left.get(), node.right.get()};
        const ExtendedRelation* operands[2] = {nullptr, nullptr};
        for (size_t side = 0; side < 2; ++side) {
          EVIDENT_ASSIGN_OR_RETURN(
              operands[side],
              ExecJoinOperand(*children[side], &rows[side], &listed[side]));
        }
        // The product schema is rebuilt from the executed operands: the
        // optimizer may have pruned their columns, and name preservation
        // guarantees the qualification (hence the predicate's attribute
        // references) is unchanged.
        EVIDENT_ASSIGN_OR_RETURN(
            SchemaPtr product_schema,
            MakeProductSchema(*operands[0], *operands[1]));
        return JoinWithProductSchema(
            *operands[0], *operands[1], node.predicate, node.threshold,
            std::move(product_schema), node.build_side, listed[0],
            listed[1]);
      }
      case PlanNode::Op::kProduct: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* l, Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r,
                                 Exec(*node.right));
        return Product(*l, *r);
      }
      case PlanNode::Op::kUnion: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* l, Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r,
                                 Exec(*node.right));
        return Union(*l, *r, node.options);
      }
      case PlanNode::Op::kIntersect: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* l, Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r,
                                 Exec(*node.right));
        return Intersect(*l, *r, node.options);
      }
      case PlanNode::Op::kRename: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* input,
                                 Exec(*node.left));
        return RenameAttribute(*input, node.rename_from, node.rename_to);
      }
      case PlanNode::Op::kMerge: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* l, Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r,
                                 Exec(*node.right));
        return MergeTuples(*l, *r, node.matching, node.options);
      }
      case PlanNode::Op::kFused:
        return ExecuteFusedPipeline(node);
      case PlanNode::Op::kMultiJoin: {
        const size_t n = node.operands.size();
        std::vector<std::vector<uint32_t>> rows(n);
        std::vector<const std::vector<uint32_t>*> listed(n, nullptr);
        std::vector<const ExtendedRelation*> rels(n, nullptr);
        for (size_t i = 0; i < n; ++i) {
          EVIDENT_ASSIGN_OR_RETURN(
              rels[i], ExecJoinOperand(*node.operands[i], &rows[i],
                                       &listed[i]));
        }
        // Operand rewrites (prefilters, possibly fused) preserve
        // schemas and relation names, so the plan-time product schema
        // the predicate was bound against stays authoritative.
        return MultiwayJoinProduct(rels, node.schema, node.predicate,
                                   node.threshold, node.join_order, listed);
      }
    }
    return Status::Internal("unreachable plan node op");
  }

 private:
  std::deque<ExtendedRelation> results_;
};

}  // namespace

Result<ExtendedRelation> ExecutePlan(const LogicalPlan& plan) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("empty logical plan");
  }
  PlanExecutor executor;
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation projected,
                           executor.ExecOwned(*plan.root));
  if (plan.order_by.field == OrderBy::Field::kNone && plan.limit == 0) {
    return projected;
  }
  // ORDER BY sn/sp ranks the single result set by certainty; LIMIT
  // truncates after ranking (without ORDER BY it keeps input order).
  // Ranking reads the membership columns and the kept rows are spliced
  // in rank order, so no row objects are built.
  const ColumnStore& store = projected.columns();
  std::vector<uint32_t> order(store.rows());
  std::iota(order.begin(), order.end(), uint32_t{0});
  if (plan.order_by.field != OrderBy::Field::kNone) {
    const ColumnSpan<double>& support =
        plan.order_by.field == OrderBy::Field::kSn ? store.sn() : store.sp();
    const bool desc = plan.order_by.descending;
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return desc ? support[a] > support[b] : support[a] < support[b];
    });
  }
  const size_t keep = plan.limit == 0
                          ? order.size()
                          : std::min(plan.limit, order.size());
  order.resize(keep);
  // The ranked copy is a real materialization; its size is identical in
  // every execution mode, so the charge is too.
  if (QueryContext* const ctx = CurrentQueryContext()) {
    EVIDENT_RETURN_NOT_OK(ctx->ChargeOutput(*projected.schema(), keep));
  }
  std::vector<SupportPair> memberships;
  memberships.reserve(keep);
  for (uint32_t r : order) memberships.push_back(store.membership(r));
  std::vector<size_t> identity(projected.schema()->size());
  std::iota(identity.begin(), identity.end(), size_t{0});
  return ExtendedRelation::AdoptColumns(
      ColumnStore::SpliceRows(store, projected.schema(), projected.name(),
                              identity, order, memberships));
}

namespace {

/// The relation name a multijoin operand subtree reads: the scan's (or
/// fused chain's composed) name under any optimizer-inserted wrappers.
std::string OperandLabel(const PlanNode& node) {
  const PlanNode* cur = &node;
  while (cur->op != PlanNode::Op::kScan && cur->op != PlanNode::Op::kFused &&
         cur->left != nullptr) {
    cur = cur->left.get();
  }
  return cur->relation.empty() ? "?" : cur->relation;
}

void RenderNode(const PlanNode& node, size_t indent, std::ostringstream* os) {
  *os << std::string(indent * 2, ' ');
  switch (node.op) {
    case PlanNode::Op::kScan:
      *os << "scan[" << node.relation;
      if (node.rel != nullptr) {
        *os << ", " << node.rel->size() << " rows";
        const size_t parts = node.rel->columns().partitions().size();
        if (parts > 0) *os << ", " << parts << " partition(s)";
      }
      *os << "]";
      break;
    case PlanNode::Op::kSelect:
      *os << "select["
          << (node.predicate != nullptr ? node.predicate->ToString() : "true")
          << "; Q: " << node.threshold.ToString() << "]";
      break;
    case PlanNode::Op::kPrefilter: {
      *os << "prefilter[";
      for (size_t i = 0; i < node.conjuncts.size(); ++i) {
        if (i) *os << " and ";
        *os << node.conjuncts[i]->ToString();
      }
      *os << "]";
      break;
    }
    case PlanNode::Op::kProject: {
      *os << "project[";
      for (size_t i = 0; i < node.attributes.size(); ++i) {
        if (i) *os << ", ";
        *os << node.attributes[i];
      }
      *os << "]";
      break;
    }
    case PlanNode::Op::kJoin:
      *os << "join["
          << (node.predicate != nullptr ? node.predicate->ToString() : "true")
          << "; Q: " << node.threshold.ToString() << "; build=";
      switch (node.build_side) {
        case JoinBuildSide::kAuto:
          *os << "auto";
          break;
        case JoinBuildSide::kLeft:
          *os << "left";
          break;
        case JoinBuildSide::kRight:
          *os << "right";
          break;
      }
      *os << "; ~" << node.estimated_rows << " rows]";
      break;
    case PlanNode::Op::kProduct:
      *os << "product[~" << node.estimated_rows << " rows]";
      break;
    case PlanNode::Op::kUnion:
      *os << "union";
      break;
    case PlanNode::Op::kIntersect:
      *os << "intersect";
      break;
    case PlanNode::Op::kRename:
      *os << "rename[" << node.rename_from << " -> " << node.rename_to
          << "]";
      break;
    case PlanNode::Op::kMerge:
      *os << "merge[" << node.matching.matches.size() << " match(es)]";
      break;
    case PlanNode::Op::kFused:
      // The replaced chain is the node's child, so the generic child
      // recursion below renders what was fused indented beneath it.
      *os << "fused pipeline[" << node.fused_stages.size() << " stage(s), "
          << node.fused_projection.size() << " col(s)";
      // Zone-map verdicts are plan-time facts (the zones ride the
      // catalog image, the stages are bound), so EXPLAIN can show
      // exactly which partitions the scan will skip.
      if (node.rel != nullptr) {
        const auto& parts = node.rel->columns().partitions();
        if (!parts.empty()) {
          size_t pruned = 0;
          for (const auto& zone : parts) {
            pruned += StagesRefutePartition(node.fused_stages, zone);
          }
          *os << ", partitions=" << pruned << "/" << parts.size()
              << " pruned";
        }
      }
      *os << "]";
      break;
    case PlanNode::Op::kMultiJoin: {
      *os << "multijoin["
          << (node.predicate != nullptr ? node.predicate->ToString() : "true")
          << "; Q: " << node.threshold.ToString() << "; order=";
      for (size_t i = 0; i < node.join_order.size(); ++i) {
        if (i) *os << ", ";
        *os << OperandLabel(*node.operands[node.join_order[i]]);
      }
      *os << "; ~" << node.estimated_rows << " rows]";
      break;
    }
  }
  *os << "\n";
  if (node.left != nullptr) RenderNode(*node.left, indent + 1, os);
  if (node.right != nullptr) RenderNode(*node.right, indent + 1, os);
  for (const auto& operand : node.operands) {
    RenderNode(*operand, indent + 1, os);
  }
}

}  // namespace

std::string RenderPlan(const LogicalPlan& plan) {
  std::ostringstream os;
  size_t indent = 0;
  if (plan.limit > 0) {
    os << "limit[" << plan.limit << "]\n";
    ++indent;
  }
  if (plan.order_by.field != OrderBy::Field::kNone) {
    os << std::string(indent * 2, ' ') << "order["
       << (plan.order_by.field == OrderBy::Field::kSn ? "sn" : "sp")
       << (plan.order_by.descending ? " desc" : " asc") << "]\n";
    ++indent;
  }
  if (plan.root != nullptr) RenderNode(*plan.root, indent, &os);
  std::string out = os.str();
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

}  // namespace eql
}  // namespace evident
