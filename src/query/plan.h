#ifndef EVIDENT_QUERY_PLAN_H_
#define EVIDENT_QUERY_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/extended_relation.h"
#include "core/operations.h"
#include "core/predicate.h"
#include "core/schema.h"
#include "core/threshold.h"
#include "integration/entity_identifier.h"
#include "query/ast.h"
#include "storage/catalog.h"

namespace evident {
namespace eql {

/// \brief One node of the logical query plan — the IR between the parsed
/// AST and the relational operators. Every node carries its resolved
/// output schema (attribute references, evidence-literal domains and
/// projection lists are bound at plan-build time, so binding errors
/// surface identically whether or not the optimizer rewrites the plan).
///
/// The executor maps nodes 1:1 onto the operators in core/operations.h;
/// the optimizer (query/optimizer.h) rewrites the tree — pushdown
/// prefilters below joins/products, projection pruning, build-side
/// choice — under the invariant that the executed result stays
/// bit-identical (as a keyed set of tuples) to the unoptimized plan's.
struct PlanNode {
  enum class Op {
    kScan,       // a catalog relation, scanned in place
    kSelect,     // σ̃: F_SS + F_TM revision + threshold Q
    kPrefilter,  // optimizer-inserted: drop rows any conjunct gives sn=0
    kProject,    // π̃ (keys always retained)
    kJoin,       // ⋈̃: σ̃ over the product, hash-partitioned when possible
    kProduct,    // ×̃
    kUnion,      // ∪̃ (tuple merging by key)
    kIntersect,  // ∩̃ (inner merge)
    kRename,     // attribute rename (schema-only)
    kMerge,      // MergeTuples with explicit matching info
    kFused,      // a Scan→Prefilter/Select/Project chain, fused per-morsel
    kMultiJoin,  // σ̃ over an n-way (n >= 3) product, pairwise-hash-joined
  };

  Op op = Op::kScan;
  /// Resolved output schema. For kJoin this is the concatenated product
  /// schema the predicate was bound against (the authoritative layout
  /// for conjunct side analysis, even after operand pruning).
  SchemaPtr schema;
  /// Optimizer cardinality estimate (rows); 0 until annotated.
  size_t estimated_rows = 0;
  std::unique_ptr<PlanNode> left, right;

  // kScan.
  std::string relation;
  const ExtendedRelation* rel = nullptr;

  // kSelect (null predicate = threshold-only selection), kJoin.
  PredicatePtr predicate;
  MembershipThreshold threshold;

  // kPrefilter: conjuncts of an ancestor join/select predicate, rewritten
  // to this operand's attribute names; a row is dropped iff any conjunct
  // evaluates to sn == 0 (membership untouched — the conjunct stays in
  // the ancestor's predicate, keeping its arithmetic bit-identical).
  std::vector<PredicatePtr> conjuncts;

  // kUnion, kIntersect, kMerge.
  UnionOptions options;

  // kJoin: the left operand's attribute count when the predicate was
  // bound (the product-schema split point), whether the whole predicate
  // bound completely (the gate for every join-level rewrite), and the
  // optimizer's build-side choice.
  size_t left_attr_count = 0;
  bool predicate_fully_bound = false;
  bool pushdown_applied = false;
  JoinBuildSide build_side = JoinBuildSide::kAuto;

  // kProject.
  std::vector<std::string> attributes;
  /// Optimizer-inserted nodes keep the operand's relation name, so
  /// product-schema qualification and result naming downstream are
  /// unchanged by the rewrite.
  bool keep_name = false;

  // kRename.
  std::string rename_from, rename_to;

  // kMerge.
  MatchingInfo matching;

  // kMultiJoin: the FROM-order operand subtrees of an n-way (n >= 3)
  // product/join, the per-operand attribute counts of the flat product
  // schema (the conjunct side-analysis split points), and the order the
  // executor's pairwise hash-join enumeration visits the operands in —
  // a permutation of 0..n-1, identity until the optimizer reorders it.
  // Any order yields the identical result (the executor restores
  // FROM-major row order and folds memberships in FROM order); the
  // order only decides how large the intermediate match sets get.
  std::vector<std::unique_ptr<PlanNode>> operands;
  std::vector<size_t> operand_attr_counts;
  std::vector<size_t> join_order;

  // kFused: a Scan→(Prefilter|Select|Project)* chain lowered to one
  // filter pass (FilterColumns) over the scan's shared column image — no
  // intermediate relation per chain node. The original chain is kept as
  // `left` for EXPLAIN, which renders it indented beneath the fused
  // node; it is never executed. `rel` points at the chain's catalog
  // scan, `relation` holds the composed output name the unfused chain
  // would have produced, `fused_stages` are the filter stages bound
  // against the scan schema in bottom-up order (one per prefilter
  // conjunct, one per select; pruning projections preserve attribute
  // names, so binding against the scan is sound), and `fused_projection`
  // maps each output attribute to its scan-schema position (the
  // composition of the chain's projections).
  std::vector<FilterStage> fused_stages;
  std::vector<size_t> fused_projection;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

/// \brief A complete logical plan: the operator tree plus the
/// result-level ORDER BY / LIMIT post-processing.
///
/// The plan pins the catalog snapshot it was built against: every scan
/// node's raw `rel` pointer points into `snapshot`, so executing the
/// plan — immediately, later, or from a cross-session plan cache — reads
/// exactly the catalog version it was planned on, even if the catalog
/// has republished (replaced relations) since. Plans are immutable after
/// optimization and safe to execute concurrently from multiple threads.
struct LogicalPlan {
  PlanNodePtr root;
  OrderBy order_by;
  size_t limit = 0;
  std::shared_ptr<const CatalogSnapshot> snapshot;
};

/// \brief Builds (and fully binds) the logical plan of a parsed query
/// against `catalog`: resolves relations, schemas, predicate attribute
/// references and evidence-literal domains, and the projection list
/// (implicitly retaining key attributes). `union_options` parameterize
/// FROM ... UNION / INTERSECT nodes.
Result<LogicalPlan> BuildPlan(const ParsedQuery& query, const Catalog* catalog,
                              const UnionOptions& union_options);

/// \brief Executes a (possibly optimized) plan, including the ORDER BY /
/// LIMIT post-pass. Scans reference their catalog relation in place, so
/// filtered scans share the catalog's cached column image.
Result<ExtendedRelation> ExecutePlan(const LogicalPlan& plan);

/// \brief Multi-line, indentation-structured rendering of the plan (the
/// EXPLAIN output): one node per line, children indented two spaces,
/// ORDER BY / LIMIT as outermost wrappers.
std::string RenderPlan(const LogicalPlan& plan);

}  // namespace eql
}  // namespace evident

#endif  // EVIDENT_QUERY_PLAN_H_
