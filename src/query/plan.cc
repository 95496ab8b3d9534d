#include "query/plan.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "core/parallel.h"
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

/// Rows per fused-pipeline morsel — matches the relational operators'
/// grain so scheduling behaviour is uniform across the executor.
constexpr size_t kFusedMorselGrain = 256;

/// A mapped column image defers its per-partition semantic checks until
/// first read; any operator consuming a scan's rows must drive them
/// first. The partition-granular readers (the fused pipeline, the fused
/// join probe, the columnar select/prefilter) verify only the
/// partitions they keep; every other consumer gets the full sweep here.
/// Row-mode relations never have checks pending, and columns() is not
/// consulted for them (it would materialize the image).
Status EnsureScanVerified(const ExtendedRelation& rel) {
  if (!rel.columnar_mode()) return Status::OK();
  const ColumnStore& store = rel.columns();
  if (!store.deferred_verification_pending()) return Status::OK();
  return store.EnsureAllVerified();
}

/// Executes a kFused node: one morsel-parallel pass over the scan's
/// shared column image evaluating every bound stage, then a single
/// serial splice of the surviving rows' projected columns. No
/// intermediate relation is built per chain node, and all morsel
/// writes target disjoint absolute slices of shared arrays, so the
/// output is bit-identical for any thread count — and bit-identical to
/// executing the original chain: stage supports are evaluated by the
/// same bound kernels in the same bottom-up order, membership revision
/// multiplies the identical factors in the identical sequence, and the
/// final splice visits survivors in ascending row order exactly like
/// each chain operator's keep list would.
Result<ExtendedRelation> ExecuteFusedPipeline(const PlanNode& node) {
  const ColumnStore& store = node.rel->columns();
  const size_t n = store.rows();
  std::vector<uint8_t> keep(n);
  std::vector<SupportPair> members(n);
  std::vector<SupportPair> supports(n);
  // Per-(morsel, stage) survivor counts, recorded only for governed
  // queries: the post-pass walk below replays the unfused chain's
  // per-operator output charges, so fusing never changes which resource
  // limit trips or the error it reports.
  QueryContext* const query_ctx = CurrentQueryContext();
  const size_t stage_count = node.fused_stages.size();
  // Zone-map pruning, decided on the calling thread before morsels are
  // cut. A refuted row's support is (0,0) at the refuting stage, so it
  // is dropped there no matter what earlier stages did — ungoverned
  // queries prune on any stage's refutation. Governed queries prune on
  // the first stage only: its drops happen before any survivor is
  // counted, so the per-stage survivor counts replayed into the
  // governor below stay identical to the unpruned execution's.
  const size_t prunable_stages =
      query_ctx != nullptr ? std::min<size_t>(stage_count, 1) : stage_count;
  EVIDENT_ASSIGN_OR_RETURN(
      const std::vector<uint8_t> row_pruned,
      PruneAndVerifyPartitions(store, [&](const auto& zone) {
        for (size_t s = 0; s < prunable_stages; ++s) {
          const PlanNode::FusedStage& stage = node.fused_stages[s];
          if (!stage.trivial && stage.bound.RefutesPartition(zone)) {
            return true;
          }
        }
        return false;
      }));
  // The morsel domain is the compacted unpruned row set: pruned
  // partitions contribute no morsels, so a mostly-pruned scan costs
  // O(surviving rows) per pass, not O(rows). Each morsel maps back to
  // absolute row slices (ForEachRunSlice); the keep/members/supports
  // arrays stay absolute-indexed, and a pruned row's keep slot simply
  // stays 0 — exactly the flag its refuted stage would have cleared.
  const std::vector<std::pair<size_t, size_t>> runs =
      UnprunedRowRuns(store, row_pruned);
  size_t live = 0;
  for (const auto& run : runs) live += run.second - run.first;
  const size_t morsel_count = ParallelMorselCount(live, kFusedMorselGrain);
  std::vector<uint64_t> stage_survivors(
      query_ctx != nullptr ? morsel_count * stage_count : 0, 0);
  ParallelForMorsels(live, kFusedMorselGrain, [&](size_t morsel,
                                                  size_t compact_begin,
                                                  size_t compact_end) {
    // This morsel's absolute row slices; every row in them is unpruned.
    std::vector<std::pair<size_t, size_t>> slices;
    ForEachRunSlice(runs, compact_begin, compact_end,
                    [&](size_t b, size_t e) { slices.emplace_back(b, e); });
    for (const auto& [slice_begin, slice_end] : slices) {
      for (size_t r = slice_begin; r < slice_end; ++r) {
        keep[r] = 1;
        members[r] = store.membership(r);
      }
    }
    // Applies `stage` to row r, whose support is supports[r] (ignored
    // for trivial stages: a threshold-only selection's support factor
    // is exactly (1,1)).
    auto apply = [&](const PlanNode::FusedStage& stage, size_t r) {
      const SupportPair support =
          stage.trivial ? SupportPair::Certain() : supports[r];
      if (stage.is_select) {
        // F_TM revision + CWA_ER + threshold, as in Select.
        const SupportPair revised = members[r].Multiply(support);
        if (!revised.HasPositiveSupport() ||
            !stage.threshold.Accepts(revised)) {
          keep[r] = 0;
        } else {
          members[r] = revised;
        }
      } else if (!support.HasPositiveSupport()) {
        keep[r] = 0;  // prefilter: drop only, membership untouched
      }
    };
    // First stage sweeps the whole morsel contiguously; later stages
    // evaluate only the survivors row-at-a-time (arithmetic-identical —
    // see EvaluateColumns), so a selective first filter is not paid for
    // again by every stage above it.
    std::vector<uint32_t> alive;
    bool dense = true;
    for (size_t s = 0; s < node.fused_stages.size(); ++s) {
      const PlanNode::FusedStage& stage = node.fused_stages[s];
      if (dense) {
        if (!stage.trivial) {
          // The dense sweep runs only at the first stage, where every
          // row of every slice is kept (pruned partitions never entered
          // the morsel domain): evaluate each slice contiguously, so a
          // pruned partition's bytes are never touched.
          for (const auto& [slice_begin, slice_end] : slices) {
            stage.bound.EvaluateColumns(store, slice_begin, slice_end,
                                        supports.data());
          }
        }
        for (const auto& [slice_begin, slice_end] : slices) {
          for (size_t r = slice_begin; r < slice_end; ++r) {
            if (keep[r]) apply(stage, r);
          }
        }
        alive.reserve(compact_end - compact_begin);
        for (const auto& [slice_begin, slice_end] : slices) {
          for (size_t r = slice_begin; r < slice_end; ++r) {
            if (keep[r]) alive.push_back(static_cast<uint32_t>(r));
          }
        }
        dense = false;
      } else {
        size_t out = 0;
        for (uint32_t r : alive) {
          if (!stage.trivial) {
            stage.bound.EvaluateColumns(store, r, r + 1, supports.data());
          }
          apply(stage, r);
          if (keep[r]) alive[out++] = r;
        }
        alive.resize(out);
      }
      if (query_ctx != nullptr) {
        stage_survivors[morsel * stage_count + s] = alive.size();
      }
    }
  });
  if (query_ctx != nullptr) {
    // Workers stop claiming morsels once a limit trips, leaving later
    // keep[] slots benignly zero — surface the sticky first error
    // instead of splicing a truncated result.
    if (query_ctx->failed()) return query_ctx->first_error();
    // Replay the unfused chain's charge sequence bottom-up (node.left is
    // the topmost chain node): each fused-away filter stage charges its
    // survivors against that chain node's schema, each interleaved
    // projection charges the then-current row count against the
    // projected schema — exactly what executing the chain would charge.
    std::vector<const PlanNode*> chain;
    for (const PlanNode* cur = node.left.get();
         cur != nullptr && cur->op != PlanNode::Op::kScan;
         cur = cur->left.get()) {
      chain.push_back(cur);
    }
    uint64_t current = n;
    size_t stage_idx = 0;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const PlanNode* cur = *it;
      if ((cur->op == PlanNode::Op::kPrefilter ||
           cur->op == PlanNode::Op::kSelect) &&
          stage_idx < stage_count) {
        uint64_t survivors = 0;
        for (size_t m = 0; m < morsel_count; ++m) {
          survivors += stage_survivors[m * stage_count + stage_idx];
        }
        ++stage_idx;
        current = survivors;
      }
      EVIDENT_RETURN_NOT_OK(query_ctx->ChargeOutput(*cur->schema, current));
    }
  }
  std::vector<uint32_t> kept;
  std::vector<SupportPair> memberships;
  for (const auto& [run_begin, run_end] : runs) {
    for (size_t r = run_begin; r < run_end; ++r) {
      if (!keep[r]) continue;
      kept.push_back(static_cast<uint32_t>(r));
      memberships.push_back(members[r]);
    }
  }
  return ExtendedRelation::AdoptColumns(
      ColumnStore::SpliceRows(store, node.schema, node.relation,
                              node.fused_projection, kept, memberships));
}

/// True when a kFused node is exactly a prefilter chain over its scan
/// with the identity projection — the shape the hash join can consume
/// as a FusedJoinProbe (same schema and rows as the catalog scan, drop
/// flags only), letting the probe loop evaluate the conjuncts per probe
/// morsel instead of materializing the prefiltered operand.
bool IsFusedPrefilterOverScan(const PlanNode& fused) {
  for (const PlanNode::FusedStage& stage : fused.fused_stages) {
    if (stage.is_select) return false;
  }
  const PlanNode* chain = fused.left.get();
  if (chain == nullptr || chain->op != PlanNode::Op::kPrefilter) return false;
  const PlanNode* scan = chain->left.get();
  if (scan == nullptr || scan->op != PlanNode::Op::kScan ||
      scan->rel == nullptr || scan->schema == nullptr) {
    return false;
  }
  if (fused.fused_projection.size() != scan->schema->size()) return false;
  for (size_t a = 0; a < fused.fused_projection.size(); ++a) {
    if (fused.fused_projection[a] != a) return false;
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
        // A fused prefilter-over-scan probe child is not executed as a
        // node at all: the probe side stays the unfiltered catalog
        // relation and the prefilter conjuncts ride into the probe loop
        // (FusedJoinProbe), evaluated per probe morsel while the build
        // table is warm — bit-identical to materializing the prefilter
        // first. The build side must be explicit (the optimizer assigns
        // one to every fully-bound join) so kAuto's run-time size
        // comparison never sees the unfiltered cardinality.
        if (node.build_side != JoinBuildSide::kAuto) {
          const bool probe_is_left = node.build_side == JoinBuildSide::kRight;
          const PlanNode* candidate =
              (probe_is_left ? node.left : node.right).get();
          if (candidate != nullptr &&
              candidate->op == PlanNode::Op::kFused &&
              IsFusedPrefilterOverScan(*candidate)) {
            const PlanNode& chain = *candidate->left;  // the kPrefilter
            const ExtendedRelation* probe_rel = chain.left->rel;
            EVIDENT_ASSIGN_OR_RETURN(
                const ExtendedRelation* other,
                Exec(probe_is_left ? *node.right : *node.left));
            const ExtendedRelation* l = probe_is_left ? probe_rel : other;
            const ExtendedRelation* r = probe_is_left ? other : probe_rel;
            EVIDENT_ASSIGN_OR_RETURN(SchemaPtr product_schema,
                                     MakeProductSchema(*l, *r));
            const FusedJoinProbe fused{chain.conjuncts};
            return JoinWithProductSchema(*l, *r, node.predicate,
                                         node.threshold,
                                         std::move(product_schema),
                                         node.build_side, &fused);
          }
        }
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* l, Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r,
                                 Exec(*node.right));
        // The product schema is rebuilt from the executed operands: the
        // optimizer may have pruned their columns, and name preservation
        // guarantees the qualification (hence the predicate's attribute
        // references) is unchanged.
        EVIDENT_ASSIGN_OR_RETURN(SchemaPtr product_schema,
                                 MakeProductSchema(*l, *r));
        return JoinWithProductSchema(*l, *r, node.predicate, node.threshold,
                                     std::move(product_schema),
                                     node.build_side);
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
        std::vector<const ExtendedRelation*> rels;
        rels.reserve(node.operands.size());
        for (const auto& operand : node.operands) {
          EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r, Exec(*operand));
          rels.push_back(r);
        }
        // Operand rewrites (prefilters, possibly fused) preserve
        // schemas and relation names, so the plan-time product schema
        // the predicate was bound against stays authoritative.
        return MultiwayJoinProduct(rels, node.schema, node.predicate,
                                   node.threshold, node.join_order);
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
  std::vector<size_t> order(projected.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (plan.order_by.field != OrderBy::Field::kNone) {
    const bool by_sn = plan.order_by.field == OrderBy::Field::kSn;
    const bool desc = plan.order_by.descending;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                       const SupportPair& ma = projected.row(a).membership;
                       const SupportPair& mb = projected.row(b).membership;
                       const double xa = by_sn ? ma.sn : ma.sp;
                       const double xb = by_sn ? mb.sn : mb.sp;
                       return desc ? xa > xb : xa < xb;
                     });
  }
  const size_t keep = plan.limit == 0
                          ? order.size()
                          : std::min(plan.limit, order.size());
  // The ranked copy is a real materialization; its size is identical in
  // every execution mode, so the charge is too.
  if (QueryContext* const ctx = CurrentQueryContext()) {
    EVIDENT_RETURN_NOT_OK(ctx->ChargeOutput(*projected.schema(), keep));
  }
  ExtendedRelation ranked(projected.name(), projected.schema());
  ranked.Reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    EVIDENT_RETURN_NOT_OK(ranked.InsertUnchecked(projected.row(order[i])));
  }
  return ranked;
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
        // Only a columnar relation can carry partitions (the EVCIMG03
        // loader's product); columns() is free to consult there.
        if (node.rel->columnar_mode()) {
          const size_t parts = node.rel->columns().partitions().size();
          if (parts > 0) *os << ", " << parts << " partition(s)";
        }
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
      if (node.rel != nullptr && node.rel->columnar_mode()) {
        const auto& parts = node.rel->columns().partitions();
        if (!parts.empty()) {
          size_t pruned = 0;
          for (const auto& zone : parts) {
            for (const PlanNode::FusedStage& stage : node.fused_stages) {
              if (!stage.trivial && stage.bound.RefutesPartition(zone)) {
                ++pruned;
                break;
              }
            }
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
