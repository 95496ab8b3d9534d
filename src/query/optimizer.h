#ifndef EVIDENT_QUERY_OPTIMIZER_H_
#define EVIDENT_QUERY_OPTIMIZER_H_

#include "query/plan.h"

namespace evident {
namespace eql {

/// \brief Rewrites a logical plan in place. Four rule families:
///
///  1. Selection pushdown — at every join whose *entire* predicate binds
///     completely (BoundPredicate; then evaluation can never fail, so no
///     rewrite can reorder which error fires first), each conjunct
///     referencing attributes of only one operand is pushed below the
///     join as a *prefilter*: rows for which the conjunct's support has
///     sn == 0 are dropped early — they could only ever produce sn = 0
///     pairs, which CWA_ER always discards — while the conjunct itself
///     stays in the join predicate, so the surviving pairs' membership
///     arithmetic multiplies the identical factors in the identical
///     order and the result stays bit-exact. Prefilters over catalog
///     scans evaluate against the catalog's shared column image.
///
///  2. Projection pushdown — a projection above a select slides a
///     pruning projection below it (keeping the predicate's attributes),
///     and a projection above a join/product prunes the operands'
///     columns down to keys + predicate + output attributes, so unused
///     packed evidence columns are never spliced through the pipeline.
///     The pruning projection sits above any pushdown prefilter (filter
///     first, narrow the survivors). Only attributes whose names do not
///     collide with the other operand are pruned (pruning a colliding
///     name would change the product schema's qualification);
///     optimizer-inserted projections keep the operand's relation name
///     for the same reason.
///
///  3. Build-side choice — joins with a fully-bound predicate get an
///     explicit hash build side from the plan's cardinality estimates
///     (post-prefilter), instead of the executor's run-time size
///     comparison. This affects only execution cost and the
///     implementation-defined row order, never the result set.
///
///  4. Join ordering — every n-way (kMultiJoin) node gets a cost-ordered
///     left-deep enumeration order, chosen greedily over its definite
///     equi-edge join graph from per-column statistics (distinct counts
///     and support histograms the base relations' shared column images
///     profile lazily — see TableStatistics). Selection pushdown applies
///     per operand exactly as for binary joins. The executor restores
///     FROM-major row order and folds memberships in FROM order, so any
///     enumeration order is result-identical; ordering only bounds the
///     intermediate match sets.
///
/// Cardinality estimates (EXPLAIN's "~N rows") come from the same
/// statistics through the classic System-R selectivity model: equality
/// against a literal keeps 1/distinct, IS over k values k/distinct,
/// ranges 1/3, each definite equi edge 1/max(distinct), thresholds the
/// histogram fraction above/below the bound, 1/2 when the model cannot
/// ground a conjunct.
///
/// All rewrites preserve the executed result as a keyed set of tuples
/// bit-exactly (cells, masses, memberships) and the first-error message;
/// the EQL fuzz differential enforces this against the unoptimized plan.
void OptimizePlan(LogicalPlan* plan);

/// \brief Post-optimize lowering: collapses every
/// Scan→(Prefilter|Select|Project)* chain that contains at least one
/// filter stage, bottoms out at a catalog scan, and whose predicates all
/// bind completely against the scan schema into a single kFused node.
/// The fused executor runs the bound stages as one filter pass
/// (FilterColumns) over the catalog's shared column image and splices
/// only surviving, projected rows into the output — no intermediate
/// relation per chain node — with output bit-identical to executing the
/// chain it replaced (the chain is kept as the fused node's child for
/// EXPLAIN). Under a governor the fused node charges its own output
/// once, like any other node. Chains with interpreted (not fully
/// bindable) predicates, rename nodes, or non-scan leaves are left
/// untouched. Runs after OptimizePlan so pushdown prefilters and pruning
/// projections are already in place; skipping it yields the unfused
/// plan.
void LowerToFusedPipelines(LogicalPlan* plan);

/// \brief Annotates per-node cardinality estimates (EXPLAIN's "~N rows")
/// without rewriting anything — what QueryEngine runs when optimization
/// is disabled, so EXPLAIN always carries estimates. OptimizePlan
/// subsumes this.
void AnnotatePlanEstimates(LogicalPlan* plan);

}  // namespace eql
}  // namespace evident

#endif  // EVIDENT_QUERY_OPTIMIZER_H_
