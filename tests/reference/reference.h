#ifndef EVIDENT_TESTS_REFERENCE_REFERENCE_H_
#define EVIDENT_TESTS_REFERENCE_REFERENCE_H_

// A deliberately naive evaluator of the extended relational algebra that
// follows the paper's definitions literally, for differential tests of
// the engine (core/operations, integration/tuple_merger, the EQL
// engine). Every result is built row by row with
// ExtendedRelation::Insert — no hashing, no morsels, no column images,
// no reservations:
//
//  - Select: Predicate::Evaluate per tuple, F_TM (component-wise
//    product with the membership), CWA_ER (drop sn = 0), threshold Q.
//  - Product / Join / MultiwayJoin: the n-way product in FROM order
//    (rightmost operand cycling fastest, memberships folded left to
//    right), then selection — tuple by tuple as the product is
//    enumerated, which is the same relation.
//  - Union / Intersect: nested-loop key match; matched tuples combine
//    every uncertain attribute with CombineEvidence and the memberships
//    with CombineMembership under the UnionOptions conflict policies.
//  - MergeTuples: rekey the matched right tuples to their left keys,
//    then Union.
//  - Preprocess: attribute preprocessing row by row — vote lists split
//    into strings with the value map applied per token, indices looked
//    up by name per cell, rows appended with Insert
//    (tests/reference/preprocess.cc).
//  - ExecuteQuery: an EQL statement's unoptimized logical plan (parsed
//    and bound by the engine's front end) walked node by node with the
//    operators above, then ORDER BY / LIMIT.
//
// ExecuteUnfused is not part of the evaluator: it runs an EQL statement
// on the engine's own executor with pipeline fusion left out, the plan
// the fused engine is compared against in strict row order.
//
// Result relation names follow the engine's (they feed the product
// schema's name qualification in chained plans). Row order is whatever
// the definition enumerates; compare against the engine with DiffByKey.
#include <string>
#include <vector>

#include "common/result.h"
#include "core/extended_relation.h"
#include "core/operations.h"
#include "core/predicate.h"
#include "core/threshold.h"
#include "integration/entity_identifier.h"
#include "integration/preprocessor.h"
#include "integration/raw_table.h"
#include "storage/catalog.h"

namespace evident {
namespace reference {

Result<ExtendedRelation> Select(const ExtendedRelation& input,
                                const PredicatePtr& predicate,
                                const MembershipThreshold& threshold =
                                    MembershipThreshold());

/// Drops every tuple for which some conjunct (in order) has sn = 0;
/// cells and membership unchanged.
Result<ExtendedRelation> FilterPositiveSupport(
    const ExtendedRelation& input, const std::vector<PredicatePtr>& conjuncts);

Result<ExtendedRelation> Project(const ExtendedRelation& input,
                                 const std::vector<std::string>& attributes);

Result<ExtendedRelation> Rename(const ExtendedRelation& input,
                                const std::string& from,
                                const std::string& to);

Result<ExtendedRelation> Product(const ExtendedRelation& left,
                                 const ExtendedRelation& right);

Result<ExtendedRelation> Join(const ExtendedRelation& left,
                              const ExtendedRelation& right,
                              const PredicatePtr& predicate,
                              const MembershipThreshold& threshold =
                                  MembershipThreshold());

/// σ̃^Q_P over the flat n-way product with `product_schema`; a null
/// `predicate` yields the bare product.
Result<ExtendedRelation> MultiwayJoin(
    const std::vector<const ExtendedRelation*>& operands,
    const SchemaPtr& product_schema, const PredicatePtr& predicate,
    const MembershipThreshold& threshold = MembershipThreshold());

Result<ExtendedRelation> Union(const ExtendedRelation& left,
                               const ExtendedRelation& right,
                               const UnionOptions& options = UnionOptions());

Result<ExtendedRelation> Intersect(const ExtendedRelation& left,
                                   const ExtendedRelation& right,
                                   const UnionOptions& options =
                                       UnionOptions());

Result<ExtendedRelation> MergeTuples(const ExtendedRelation& left,
                                     const ExtendedRelation& right,
                                     const MatchingInfo& matching,
                                     const UnionOptions& options =
                                         UnionOptions());

/// AttributePreprocessor(schema, derivations, membership).Run(input),
/// row by row (see the header comment): the same relation and the same
/// first error, code and message, as the compiled preprocessor.
Result<ExtendedRelation> Preprocess(
    const SchemaPtr& schema,
    const std::vector<AttributeDerivation>& derivations,
    const MembershipDerivation& membership, const RawTable& input);

/// Parses and binds `eql` against `catalog`, then evaluates the
/// unoptimized plan with this evaluator (default UnionOptions, as
/// QueryEngine uses).
Result<ExtendedRelation> ExecuteQuery(const Catalog& catalog,
                                      const std::string& eql);

/// The engine's unfused plan of `eql`: QueryEngine's parse → plan →
/// [optimize] steps composed by hand, skipping LowerToFusedPipelines, so
/// every chain node executes as its own operator (default UnionOptions).
Result<ExtendedRelation> ExecuteUnfused(const Catalog& catalog,
                                        const std::string& eql,
                                        bool optimize);

/// Compares an engine outcome with the reference outcome keyed by key
/// (row order ignored): the same ok/error outcome and status code, and
/// on success equal schemas, equal cardinalities and, per key,
/// bit-identical cells (same Value kind, same focal sets, bitwise-equal
/// masses) and memberships. Returns "" on agreement, else a description
/// of the first difference.
std::string DiffByKey(const Result<ExtendedRelation>& engine,
                      const Result<ExtendedRelation>& expected);

/// Compares two engine outcomes strictly (e.g. the same operator under
/// two thread counts): the same ok/error outcome, status code and
/// message, and on success equal schemas and, row by row in order,
/// bit-identical cells and memberships. Returns "" on agreement.
std::string DiffInOrder(const Result<ExtendedRelation>& a,
                        const Result<ExtendedRelation>& b);

}  // namespace reference
}  // namespace evident

#endif  // EVIDENT_TESTS_REFERENCE_REFERENCE_H_
