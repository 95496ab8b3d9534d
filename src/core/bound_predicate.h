#ifndef EVIDENT_CORE_BOUND_PREDICATE_H_
#define EVIDENT_CORE_BOUND_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/column_store.h"
#include "core/predicate.h"
#include "core/schema.h"
#include "core/support_pair.h"
#include "core/tuple.h"

namespace evident {

/// \brief A selection predicate compiled against a schema: attribute
/// references resolved to positions, IS-subsets translated to bit masks
/// over the attribute's frame, theta comparisons tabulated as per-element
/// satisfaction masks — once per operator call instead of once per tuple.
///
/// Evaluation is arithmetic-identical to Predicate::Evaluate (same focal
/// iteration orders, same accumulation sequences), so the interpreted and
/// bound paths produce bit-equal support pairs; the operators rely on
/// this to agree bit-for-bit with the paper's per-tuple definition. Conjuncts
/// the binder cannot pre-resolve — unknown attribute names, constants
/// outside the frame, frames wider than the inline 64-value word, or
/// predicate types it does not know — fall back to the interpreted
/// predicate so behaviour (including per-row error reporting) never
/// changes; such predicates report fully_bound() == false and are
/// excluded from the columnar and pair fast paths.
class BoundPredicate {
 public:
  /// \brief Compiles `predicate` against `schema`. Never fails: what
  /// cannot be bound falls back to interpretation.
  static BoundPredicate Bind(PredicatePtr predicate, SchemaPtr schema);

  /// \brief Bind against a product schema whose first `left_cells`
  /// attributes come from the left operand — enables EvaluatePair for
  /// the hash-join residual without materializing the pair's tuple.
  static BoundPredicate BindPair(PredicatePtr predicate, SchemaPtr schema,
                                 size_t left_cells);

  /// \brief True when every conjunct was pre-resolved. Then evaluation
  /// cannot fail and EvaluatePair / EvaluateColumns are available;
  /// otherwise callers fall back to the interpreted predicate.
  bool fully_bound() const { return fully_bound_; }

  /// \brief Evaluate over the (left, right) pair as if over the
  /// concatenated product tuple, without building it. Requires
  /// fully_bound() and a BindPair-compiled predicate.
  SupportPair EvaluatePair(const ExtendedTuple& left,
                           const ExtendedTuple& right) const;

  /// \brief EvaluatePair straight off the operands' column stores:
  /// evaluates the pair (left row `lrow`, right row `rrow`) reading
  /// packed value/evidence columns — the join splice path, which never
  /// materializes operand row objects. Requires fully_bound() and a
  /// BindPair-compiled predicate; arithmetic-identical to EvaluatePair
  /// (same focal orders, same accumulation sequences).
  SupportPair EvaluatePairColumns(const ColumnStore& left, size_t lrow,
                                  const ColumnStore& right,
                                  size_t rrow) const;

  /// \brief True when some conjunct is provably unsatisfiable on every
  /// row of the partition, judged from its zone map alone — then every
  /// row's support is exactly (0, 0), F_TM revision zeroes sn, and
  /// CWA_ER drops the row, so a scan may skip the partition without
  /// reading (or even verifying) its bytes. Only definite-attribute
  /// theta comparisons and definite IS conjuncts consult the zones;
  /// everything else conservatively returns false. Requires
  /// fully_bound() on a single-relation (Bind, not BindPair) predicate;
  /// returns false otherwise.
  bool RefutesPartition(const ColumnStore::PartitionZone& zone) const;

  /// \brief Evaluates rows [begin, end) of the column store, writing
  /// out[row] for each — `out` is indexed *absolutely* (out[row], not
  /// out[row - begin]), so morsel-parallel callers hand every worker the
  /// same full-size output array and the disjoint ranges stay disjoint
  /// writes. Requires fully_bound(); reads packed evidence spans
  /// directly (no per-row evidence objects). Thread-safe across
  /// disjoint ranges (scratch is thread-local). The per-row
  /// multiplication sequence runs in conjunct order regardless of range
  /// width, so a single-row call (begin = row, end = row + 1 — how the
  /// filter pass's sparse later stages evaluate surviving rows) is
  /// arithmetic-identical to the same row inside a full-range sweep.
  void EvaluateColumns(const ColumnStore& store, size_t begin, size_t end,
                       SupportPair* out) const;

  /// \name Compiled representation (public for the evaluation helpers in
  /// bound_predicate.cc; not part of the stable API).
  /// @{

  /// One side of a bound theta comparison.
  struct Operand {
    enum class Kind : uint8_t {
      kDefiniteAttr,   // definite/key attribute: one Value per row
      kEvidenceAttr,   // uncertain attribute over an inline frame
      kLitValue,       // literal definite value
      kLitEvidence,    // literal evidence set over an inline frame
    };
    Kind kind = Kind::kLitValue;
    size_t attr = 0;                  // attribute operands
    const Domain* domain = nullptr;   // evidence operands
    const Value* lit_value = nullptr; // kLitValue (owned by the predicate)
    std::vector<uint64_t> lit_words;  // kLitEvidence, SortedFocals order
    std::vector<double> lit_masses;

    bool value_typed() const {
      return kind == Kind::kDefiniteAttr || kind == Kind::kLitValue;
    }
    /// Element count of the operand's fixed universe (1 for value-typed).
    size_t universe() const {
      return value_typed() ? 1 : domain->size();
    }
  };

  struct Conjunct {
    enum class Kind : uint8_t {
      kIsDefinite,   // IS over a definite/key attribute
      kIsEvidence,   // IS over an inline uncertain attribute
      kTheta,        // theta comparison with pre-resolved operands
    };
    Kind kind = Kind::kIsDefinite;
    size_t attr = 0;                      // kIsDefinite / kIsEvidence
    const std::vector<Value>* is_values = nullptr;  // kIsDefinite
    uint64_t set_word = 0;                // kIsEvidence: C as a bit mask
    ThetaOp op = ThetaOp::kEq;            // kTheta
    ThetaSemantics semantics = ThetaSemantics::kForallExists;
    Operand lhs, rhs;
    /// sat[s] = mask of rhs elements t with theta(lhs[s], rhs[t]);
    /// precomputed when neither side is kDefiniteAttr (whose per-row
    /// value requires recomputation at evaluation time).
    std::vector<uint64_t> sat;
    bool sat_static = false;
  };

  /// @}

 private:
  void BindInto(const PredicatePtr& predicate);
  bool BindConjunct(const PredicatePtr& predicate);

  PredicatePtr root_;
  SchemaPtr schema_;
  std::vector<Conjunct> conjuncts_;
  size_t left_cells_ = 0;  // BindPair split point (0 = single relation)
  bool fully_bound_ = false;
};

}  // namespace evident

#endif  // EVIDENT_CORE_BOUND_PREDICATE_H_
