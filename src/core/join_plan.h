#ifndef EVIDENT_CORE_JOIN_PLAN_H_
#define EVIDENT_CORE_JOIN_PLAN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/predicate.h"
#include "core/schema.h"

namespace evident {

/// \brief One definite equi edge of a join graph: a conjunct `A = B`
/// where A resolves to a definite (key or definite-kind) attribute of
/// operand `left_operand` (at operand-local position `left_index`) and B
/// to a definite attribute of the distinct operand `right_operand`, with
/// left_operand < right_operand.
///
/// Semantics: equality of two definite cells contributes support (1,1)
/// to F_SS when the values are equal and (0,0) otherwise — under both
/// ThetaSemantics, since definite cells decompose to singleton focals. A
/// (0,0) factor zeroes the revised membership, and extended selection
/// always drops sn = 0 tuples (CWA_ER) regardless of the threshold Q, so
/// combinations that fail an edge can never reach the result: the edges
/// partition the product exactly, which is what makes hash-partitioning
/// on any subset of them sound.
struct JoinEdge {
  size_t left_operand;
  size_t left_index;
  size_t right_operand;
  size_t right_index;
};

/// \brief A conjunct that is not an edge, with the operands its
/// attribute references resolve to (ascending, distinct; empty for a
/// reference-free conjunct).
struct ResidualConjunct {
  PredicatePtr predicate;
  std::vector<size_t> operands;
};

/// \brief A join predicate split into hash edges and a residual.
struct JoinPredicate {
  /// The error evaluating the predicate over the materialized product
  /// would report first — an attribute reference that does not resolve,
  /// an IS constant outside an uncertain attribute's frame, an empty
  /// conjunction — found at plan time so a join fails whether or not
  /// any combination matches. OK otherwise.
  Status status;
  std::vector<JoinEdge> edges;
  /// Every other conjunct (theta comparisons involving uncertain
  /// attributes or literals, IS-conditions, non-equality operators,
  /// same-operand equalities), in conjunct order.
  std::vector<ResidualConjunct> residual;

  /// The conjunction of the residual conjuncts; null when the edges
  /// cover the whole predicate (every surviving combination then carries
  /// support (1,1) from it).
  PredicatePtr ResidualPredicate() const;
};

/// \brief Depth-first left-to-right flattening of nested conjunctions
/// into `out`, matching AndPredicate::Evaluate's order — shared by the
/// join analyzer below and the query optimizer's pushdown pass (which
/// routes single-operand conjuncts below the join). An empty conjunction
/// is kept as a leaf so consumers report the same error evaluation
/// would.
void FlattenConjuncts(const PredicatePtr& predicate,
                      std::vector<PredicatePtr>* out);

/// \brief Splits `predicate` (written against the flat product schema
/// whose operands contribute `operand_attr_counts` attributes each, in
/// operand order) into definite equi edges and residual conjuncts.
///
/// Conjuncts are resolved in evaluation order and the first failure is
/// kept in `status`; analysis still goes on, so the edges of the
/// resolvable conjuncts are always reported (the optimizer's estimates
/// read them). A null predicate has no edges and no residual.
JoinPredicate AnalyzeJoinPredicate(
    const PredicatePtr& predicate, const RelationSchema& product_schema,
    const std::vector<size_t>& operand_attr_counts);

}  // namespace evident

#endif  // EVIDENT_CORE_JOIN_PLAN_H_
