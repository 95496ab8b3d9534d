#ifndef EVIDENT_CORE_EXTENDED_RELATION_H_
#define EVIDENT_CORE_EXTENDED_RELATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/key_index.h"
#include "core/lazy_once.h"
#include "core/schema.h"
#include "core/tuple.h"

namespace evident {

class ColumnStore;

/// \brief The duplicate-key rejection every insert path reports —
/// shared by ExtendedRelation::InsertTrusted and the operators that
/// replay the duplicate check over encoded keys (Project's uniqueness
/// pass, MergeTuples' rekey pass), so every path reports the same
/// message.
Status MakeDuplicateKeyError(const KeyVector& key,
                             const std::string& relation_name);

/// \brief Insert's check of one cell against its attribute: a key or
/// definite attribute holds a Value inside its domain (when it declares
/// one); an uncertain attribute holds an evidence set over its domain
/// whose mass function validates. Insert and the attribute preprocessor
/// (which builds column images without Insert) both run it, so they
/// reject the same cells with the same messages.
Status ValidateCell(const AttributeDef& attr, const Cell& cell);

/// \brief Insert's membership check: 0 ≤ sn ≤ sp ≤ 1 and, when
/// `require_positive_sn` (CWA_ER for stored tuples), sn > 0.
Status ValidateMembership(const SupportPair& membership,
                          bool require_positive_sn);

/// \brief Transparent hash over encoded keys for callers that keep their
/// own key sets (e.g. MergeTuples' matched-key bookkeeping); pairs with
/// std::equal_to<> so string_view probes allocate nothing.
struct EncodedKeyHash {
  using is_transparent = void;
  size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>()(key);
  }
};

/// \brief An extended relation (the paper's §2.3): tuples with definite
/// keys, evidence-set non-key attributes, and a per-tuple membership
/// support pair, stored under the generalized closed world assumption
/// CWA_ER.
///
/// CWA_ER: every *stored* tuple has sn > 0; a tuple not stored is
/// interpreted as having sn = 0 (no necessary support for its existence)
/// with unconstrained sp. Insert enforces this; InsertUnchecked exists so
/// tests and the boundedness property checker can materialize complement
/// relations whose hypothetical tuples have sn = 0.
///
/// A relation always holds one column image (a ColumnStore): the
/// relational operators execute over column images and wrap their
/// outputs with AdoptColumns, a loaded EVCIMG03 image adopts its (possibly
/// mapped) store, and Insert appends to the store through the same row
/// appender the attribute preprocessor uses. Copies share the store;
/// Insert copies it first when it is shared or still has deferred checks
/// pending (copy-on-write), so a `const` relation is safe to share
/// across threads while another copy is being built. The key index lives
/// in the store beside its encoded-key arena. The row image (for callers
/// that read rows()) is a lazily built view — a LazyOnce cell, so a
/// `const` relation may be read from any number of threads at once.
class ExtendedRelation {
 public:
  ExtendedRelation() : ExtendedRelation(std::string(), nullptr) {}
  /// An empty relation over `schema`.
  ExtendedRelation(std::string name, SchemaPtr schema);

  /// \brief Wraps a column image as a relation. The store's row keys
  /// must be unique — the operators' outputs guarantee this by
  /// construction (a relation's keys are unique and the operators only
  /// ever narrow or disjointly combine key sets); the lazily-built index
  /// does not re-check.
  static ExtendedRelation AdoptColumns(ColumnStore store);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const SchemaPtr& schema() const { return schema_; }

  size_t size() const;
  bool empty() const { return size() == 0; }
  const std::vector<ExtendedTuple>& rows() const {
    return rows_.Get([this] { return MaterializeRows(); });
  }
  const ExtendedTuple& row(size_t i) const { return rows()[i]; }

  /// \brief Validates the tuple against the schema and CWA_ER (sn > 0)
  /// and appends it. Fails with AlreadyExists on a duplicate key.
  Status Insert(ExtendedTuple tuple);

  /// \brief Like Insert but skips the sn > 0 check (still validates
  /// shape, domains and 0 ≤ sn ≤ sp ≤ 1). For complements and tests.
  Status InsertUnchecked(ExtendedTuple tuple);

  /// \brief Appends a tuple already known to satisfy this relation's
  /// schema — cells taken (or combined) from relations validated against
  /// a union-compatible schema. Skips per-cell validation entirely; the
  /// duplicate-key check and key index are still maintained. Builders
  /// that copy already-validated rows use it: per-tuple revalidation of
  /// unchanged evidence sets dominated their cost.
  Status InsertTrusted(ExtendedTuple tuple);

  /// \brief The key of `tuple` under this relation's schema.
  KeyVector KeyOf(const ExtendedTuple& tuple) const;

  /// \brief Index of the row with key `key`, or NotFound.
  Result<size_t> FindByKey(const KeyVector& key) const;
  bool ContainsKey(const KeyVector& key) const;

  /// \brief FindByKey over an already-encoded key (the canonical byte
  /// encoding of the key cells, ColumnStore::EncodeKeyOfRow's form);
  /// probing with it avoids allocating a KeyVector per lookup.
  Result<size_t> FindByEncodedKey(std::string_view key) const;
  bool ContainsEncodedKey(std::string_view key) const {
    return ProbeEncodedKey(key) != EncodedKeyIndex::kNoRow;
  }

  /// \brief The allocation-free probe form: the row holding `key`, or
  /// EncodedKeyIndex::kNoRow — no Status is built on a miss. The hot
  /// operator probe loops use this.
  uint32_t ProbeEncodedKey(std::string_view key) const;

  /// \brief The column image of this relation. Building the row image
  /// or the key index never replaces it, so a mapped image keeps its
  /// deferred verification however it has been read.
  const ColumnStore& columns() const { return *store_; }

  /// \brief 1 once this relation has built its row image (rows()),
  /// else 0 (copies carry a built row image, so they report it too).
  /// Observability for tests asserting that columnar pipelines — e.g.
  /// save → load → scan through the column-image format, or an ORDER BY
  /// — never materialize rows as a side effect.
  uint64_t rows_materialized() const { return rows_.built() ? 1 : 0; }

  /// \brief Checks every stored tuple against the schema and the CWA_ER
  /// invariant; used by property tests and after deserialization. A
  /// columnar relation first runs its column image's pending deferred
  /// checks, so a corrupt mapped image is reported, not just decoded.
  /// Rows are checked one transient tuple at a time, in row order: the
  /// row image is never built.
  Status ValidateInvariants() const;

  /// \brief Structural near-equality (same schema, same keys mapping to
  /// tuples whose cells and membership agree within eps); row order is
  /// ignored, matching set semantics of relations.
  bool ApproxEquals(const ExtendedRelation& other, double eps = 1e-9) const;

  /// \brief Multi-line debug rendering (one tuple per line).
  std::string ToString(int mass_decimals = 6) const;

 private:
  Status ValidateTuple(const ExtendedTuple& tuple, bool require_positive_sn)
      const;
  explicit ExtendedRelation(std::shared_ptr<ColumnStore> store);
  Status InsertImpl(ExtendedTuple tuple, bool require_positive_sn,
                    bool validate);
  /// The store for an insert to mutate: first verified and cloned into
  /// this relation's own copy when it is shared or has deferred checks
  /// pending (dropping the row image, which the clone's appends would
  /// otherwise have to extend).
  Result<ColumnStore*> MutableStore();
  std::vector<ExtendedTuple> MaterializeRows() const;

  std::string name_;
  SchemaPtr schema_;
  // The column image, shared by copies of this relation; never null
  // (except in a moved-from relation). Only an insert through
  // MutableStore() writes to it, and only while this relation is its
  // sole owner.
  std::shared_ptr<ColumnStore> store_;
  LazyOnce<std::vector<ExtendedTuple>> rows_;
};

}  // namespace evident

#endif  // EVIDENT_CORE_EXTENDED_RELATION_H_
