#ifndef EVIDENT_CORE_OPERATIONS_H_
#define EVIDENT_CORE_OPERATIONS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/bound_predicate.h"
#include "core/column_store.h"
#include "core/extended_relation.h"
#include "core/predicate.h"
#include "core/threshold.h"
#include "ds/combination.h"

namespace evident {

/// \brief One stage of the column filter pass (FilterColumns), bound
/// against the filtered store's schema. A select stage is σ̃'s row
/// test: F_TM revises the membership by the stage's support, then CWA_ER
/// (sn > 0) and the threshold Q decide. A prefilter stage (one
/// FilterPositiveSupport conjunct) drops rows whose support has sn == 0
/// and leaves the membership untouched.
struct FilterStage {
  bool is_select = false;
  /// A threshold-only selection (no predicate): the support factor is
  /// exactly (1,1), so nothing is evaluated and nothing is pruned.
  bool trivial = false;
  BoundPredicate bound;           // fully bound unless `trivial`
  MembershipThreshold threshold;  // select stages only

  /// Applies the stage to a row whose predicate support is `support`:
  /// true when the row survives, with a kept select row's `*membership`
  /// revised.
  bool Apply(const SupportPair& support, SupportPair* membership) const;
};

/// \brief True when some non-trivial stage refutes `zone` by its zone
/// map: the partitions FilterColumns skips, and the ones EXPLAIN
/// reports as pruned.
bool StagesRefutePartition(const std::vector<FilterStage>& stages,
                           const ColumnStore::PartitionZone& zone);

/// \brief The rows a filter pass keeps: ascending row ids of the
/// filtered store and, parallel to them, their (revised) memberships.
struct FilteredRows {
  std::vector<uint32_t> rows;
  std::vector<SupportPair> memberships;
};

/// \brief The one column filter pass behind Select, FilterPositiveSupport,
/// fused scan pipelines and fused join operands: applies `stages` in
/// order to every row of `store` and returns the survivors.
///
/// A partition that any non-trivial stage refutes by its zone map is
/// skipped without being read or verified (its rows would all get
/// support (0,0) there and be dropped); the surviving partitions are
/// verified, and the pass runs morsel-parallel over their rows as one
/// compacted domain. Per morsel the first stage evaluates densely over
/// contiguous row slices and later stages evaluate sparsely on the rows
/// still alive — arithmetic-identical to evaluating every stage over
/// every row, so the result is bit-identical to applying the stages one
/// operator at a time, at any thread count. A governed query's sticky
/// first error is returned instead of a truncated result; charging the
/// output is the caller's. Every stage must be fully bound or trivial.
Result<FilteredRows> FilterColumns(const ColumnStore& store,
                                   const std::vector<FilterStage>& stages);

/// \brief Extended selection σ̃^Q_P (§3.1).
///
/// For each tuple r: computes the predicate support F_SS(r, P), revises
/// the membership via F_TM (component-wise product), and keeps the tuple
/// when the revised membership passes the threshold Q. Original attribute
/// values are retained (the paper's departure from DeMichiel). Tuples
/// whose revised sn is 0 are always dropped, keeping the result a valid
/// extended relation under CWA_ER (the paper's consistency requirement on
/// Q).
Result<ExtendedRelation> Select(const ExtendedRelation& input,
                                const PredicatePtr& predicate,
                                const MembershipThreshold& threshold =
                                    MembershipThreshold());

/// \brief The query optimizer's pushdown prefilter: drops every tuple
/// for which *any* of `conjuncts` evaluates to a support pair with
/// sn == 0, keeping cells and membership byte-identical (no F_TM
/// revision, no threshold).
///
/// This is the exact-pushdown form of selection below a join/product: a
/// zero-sn conjunct contributes an exactly-zero factor to the revised
/// membership of every pair the tuple appears in, and sn = 0 pairs are
/// always dropped under CWA_ER, so removing the tuple early cannot
/// change the result — while leaving the conjunct in the downstream
/// predicate keeps the surviving pairs' floating-point membership
/// arithmetic bit-identical to the unoptimized plan (support factors
/// multiply in their original order). The output keeps the input's
/// *name* so product-schema qualification downstream is unchanged.
/// Callers (the optimizer) only push conjuncts that bind completely, so
/// evaluation cannot fail; if a conjunct does not bind, every conjunct
/// is interpreted per row over a transient tuple (the relation's row
/// image is never built), with per-row error behaviour.
Result<ExtendedRelation> FilterPositiveSupport(
    const ExtendedRelation& input, const std::vector<PredicatePtr>& conjuncts);

/// \brief What extended union does when Dempster combination of some
/// attribute (or of the membership) hits total conflict (kappa == 1).
enum class TotalConflictPolicy {
  /// Fail the union, naming the key — "inform the data administrators"
  /// (the paper's suggested action).
  kError,
  /// Drop the conflicting tuple pair from the result.
  kSkipTuple,
  /// Replace the conflicting attribute value by the vacuous evidence set
  /// (total ignorance) and keep the tuple.
  kVacuous,
};

/// \brief What extended union does when two matched tuples disagree on a
/// *definite* (non-evidence) non-key attribute — a conflict the paper
/// assumes preprocessing has eliminated.
enum class DefiniteConflictPolicy {
  kError,
  kPreferLeft,
  kPreferRight,
};

struct UnionOptions {
  /// Rule used to combine both attribute evidence and membership.
  CombinationRule rule = CombinationRule::kDempster;
  TotalConflictPolicy on_total_conflict = TotalConflictPolicy::kError;
  DefiniteConflictPolicy on_definite_conflict = DefiniteConflictPolicy::kError;
};

/// \brief The shared precondition of Union/Intersect (null schemas,
/// union compatibility), exposed so the query planner can report the
/// identical error at plan-build time.
Status CheckUnionCompatible(const ExtendedRelation& left,
                            const ExtendedRelation& right);

/// \brief Extended union R ∪̃_K S (§3.2) — the paper's tuple-merging
/// operation.
///
/// Requires union-compatible schemas. Tuples whose keys appear in only
/// one relation are retained unchanged (the other source is assumed
/// totally ignorant about them, and combining with vacuous evidence is
/// the identity). Tuples with matching keys have every uncertain
/// attribute combined by Dempster's rule and their membership pairs
/// combined on the boolean frame.
Result<ExtendedRelation> Union(const ExtendedRelation& left,
                               const ExtendedRelation& right,
                               const UnionOptions& options = UnionOptions());

/// \brief Extended intersection R ∩̃_K S — an *extension beyond the
/// paper*: like the extended union but keeping only entities present in
/// both sources (inner merge). Useful when the integrator only trusts
/// corroborated entities. Matched tuples are combined exactly as in
/// Union; unmatched tuples are dropped. It runs the union's own pass
/// with the single-source rows left out, so the output (named "L n R",
/// merged rows in left-row order) is the only image built, and a
/// governed query is charged for it once.
Result<ExtendedRelation> Intersect(const ExtendedRelation& left,
                                   const ExtendedRelation& right,
                                   const UnionOptions& options =
                                       UnionOptions());

/// \brief Folds the extended union over three or more sources
/// (integration of N component databases). Dempster's rule is
/// associative and commutative, so the result does not depend on the
/// integration order; fails on an empty list.
Result<ExtendedRelation> UnionAll(const std::vector<ExtendedRelation>& sources,
                                  const UnionOptions& options =
                                      UnionOptions());

/// \brief Extended projection π̃_Ã (§3.3). `attributes` must include every
/// key attribute (the paper projects key + membership always); the
/// implicit membership attribute is always carried. The picked columns
/// are spliced as whole column copies (no combination, no row
/// materialization); the insert path's duplicate-key guarantee is kept
/// by a uniqueness check over the encoded keys (which reuses the input's
/// cached encoded-key arena when the projection keeps the key order).
Result<ExtendedRelation> Project(const ExtendedRelation& input,
                                 const std::vector<std::string>& attributes);

/// \brief Project's precondition checks (known attributes, no
/// duplicates, keys retained) and output schema, shared with the query
/// planner so plan-build-time and execution-time projection errors carry
/// identical messages. `indices` (optional) receives each projected
/// attribute's position in `schema`.
Result<SchemaPtr> ResolveProjectionSchema(
    const RelationSchema& schema, const std::vector<std::string>& attributes,
    std::vector<size_t>* indices = nullptr);

/// \brief The concatenated schema of R ×̃ S: left's attributes then
/// right's, with colliding names qualified as "<relation>.<attribute>".
/// Shared by Product, Join and the query engine's join dispatch (which
/// binds the join predicate against this schema without materializing
/// the product).
Result<SchemaPtr> MakeProductSchema(const ExtendedRelation& left,
                                    const ExtendedRelation& right);

/// \brief Extended cartesian product R ×̃ S (§3.4): concatenates tuple
/// pairs and multiplies memberships via F_TM. Attribute name collisions
/// are qualified as "<relation>.<attribute>"; the result's key is the
/// union of both keys. It is the join executor's n = 2 case without a
/// predicate: rows in left-major order, spliced straight from the
/// operands' column images (no row objects are built). A governed
/// product charges its rows against the row cap as it forms them, so a
/// runaway product trips mid-loop.
Result<ExtendedRelation> Product(const ExtendedRelation& left,
                                 const ExtendedRelation& right);

/// \brief Extended join R ⋈̃^Q_P S (§3.5), defined as σ̃^Q_P (R ×̃ S).
///
/// The n = 2 case of the join executor (see MultiwayJoinProduct), which
/// never materializes the product: the predicate is split into definite
/// equi edges (L.a = R.b) and a residual (AnalyzeJoinPredicate). The
/// build operand is hashed on its edge cells and the probe operand's
/// rows probe it in morsels, across threads; without an edge every pair
/// is visited. Equality of definite cells contributes exactly (1,1)/(0,0)
/// support, and sn = 0 pairs are always dropped under CWA_ER, so only
/// matching pairs are ever formed; they get the residual's support (over
/// the operands' column spans when it binds, over a transient
/// concatenated tuple when it does not), the revised membership, CWA_ER
/// and the threshold, and the survivors' column slices are spliced into
/// the output image. A governed join charges the pairs it keeps
/// against the row cap as it forms them. The result is bit-identical
/// to the definition, *including its row order*: left-major, as the
/// materialized product would list the pairs, for either build side
/// and any thread count.
Result<ExtendedRelation> Join(const ExtendedRelation& left,
                              const ExtendedRelation& right,
                              const PredicatePtr& predicate,
                              const MembershipThreshold& threshold =
                                  MembershipThreshold());

/// \brief Which operand the join builds its hash table on. kAuto picks
/// the smaller operand (by rows taking part) at execution time; the
/// query optimizer overrides it from plan-time cardinality estimates.
/// The choice only affects performance, never the result or its row
/// order.
enum class JoinBuildSide { kAuto, kLeft, kRight };

/// \brief Join for callers that already built the operands' product
/// schema (the query engine binds WHERE against it before joining);
/// `product_schema` must be MakeProductSchema(left, right)'s result.
/// Saves rebuilding the schema once per call — Join(l, r, p, q) is
/// exactly this with a fresh schema.
///
/// `left_rows` / `right_rows` (each may be null) restrict that operand to
/// the listed rows, ascending: a prefilter's filter-pass survivors over
/// the relation (memberships unchanged). The result is bit-identical to
/// joining against the relation those rows would splice into; the
/// executor just reads them in place, which saves the splice.
Result<ExtendedRelation> JoinWithProductSchema(
    const ExtendedRelation& left, const ExtendedRelation& right,
    const PredicatePtr& predicate, const MembershipThreshold& threshold,
    SchemaPtr product_schema, JoinBuildSide build_side = JoinBuildSide::kAuto,
    const std::vector<uint32_t>* left_rows = nullptr,
    const std::vector<uint32_t>* right_rows = nullptr);

/// \brief The flat concatenated schema of an n-way product
/// R1 ×̃ ... ×̃ Rn: every operand's attributes in operand order, with any
/// attribute name occurring in more than one operand qualified as
/// "<relation>.<attribute>". The n = 2 case matches MakeProductSchema
/// except that qualification is by name multiplicity across the whole
/// list (a name unique to one operand is never qualified).
Result<SchemaPtr> MakeMultiwayProductSchema(
    const std::vector<const ExtendedRelation*>& operands);

/// \brief Extended n-way join σ̃^Q_P (R1 ×̃ ... ×̃ Rn) over an
/// already-built flat product schema; with a null `predicate` it is the
/// pure n-way product (no selection, no threshold).
///
/// The result is definitionally the left-major (FROM-order) product
/// with memberships folded left-to-right via F_TM, then one extended
/// selection with the full predicate — and is bit-identical to that
/// definition, row order included, for *any* `join_order` (a permutation
/// of 0..n-1; the identity when empty) and any thread count. This is the
/// one join executor (Join and Product are its n = 2 case): it brings
/// the operands in one at a time in `join_order`, hashing each incoming
/// operand on the predicate's definite equi edges into the operands
/// already placed and probing it with the current match set in
/// morsels, across threads (a cross step when no edge connects). When
/// the whole predicate binds, a residual conjunct whose operands are all
/// placed drops combinations with sn == 0 at the step that places its
/// last operand. The last step gives every combination it forms the
/// full predicate's support, the folded membership, CWA_ER and the
/// threshold; the kept ones are put in FROM-major order and spliced
/// once. Dropped combinations carry an exact zero factor (always removed
/// under CWA_ER), so the order only decides intermediate sizes, never
/// the result; the intermediate match sets are not charged to the
/// governor, the output is — against the row cap as the last step
/// keeps it, so a runaway join trips mid-loop. A predicate that does not bind still prunes
/// by its edges, and its residual is interpreted per formed combination.
///
/// `operand_rows` (empty, or one entry per operand, each may be null)
/// restricts operands to listed rows, as JoinWithProductSchema's
/// `left_rows` / `right_rows` do.
Result<ExtendedRelation> MultiwayJoinProduct(
    const std::vector<const ExtendedRelation*>& operands,
    const SchemaPtr& product_schema, const PredicatePtr& predicate,
    const MembershipThreshold& threshold,
    const std::vector<size_t>& join_order = {},
    const std::vector<const std::vector<uint32_t>*>& operand_rows = {});

/// \brief Renames one attribute; useful before Product/Union when names
/// collide or differ across sources. This is a schema-only change: the
/// output adopts the operand's column image under the renamed schema
/// without materializing any rows.
Result<ExtendedRelation> RenameAttribute(const ExtendedRelation& input,
                                         const std::string& from,
                                         const std::string& to);

/// \brief Combines two membership pairs under `rule` on the boolean frame
/// Ψ; exposed for the union implementation, the ablation benches, and
/// tests that cross-check the closed form against the generic engine.
Result<SupportPair> CombineMembership(const SupportPair& a,
                                      const SupportPair& b,
                                      CombinationRule rule);

}  // namespace evident

#endif  // EVIDENT_CORE_OPERATIONS_H_
