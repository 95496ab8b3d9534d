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
/// A relation lives in one of two storage modes. Row mode is the
/// builder: Insert appends rows and maintains the key index eagerly
/// (duplicate keys are rejected at insert time). Columnar mode holds
/// only a ColumnStore image — every relational operator executes over
/// column images and builds its output this way (AdoptColumns), so a
/// result that is only ever scanned column-at-a-time, or fed into the
/// next operator, never pays for materializing row objects or an index
/// it does not probe. The row image (for callers that read rows()) and
/// the key index are each materialized lazily on first use and the
/// relation behaves identically from then on; a row-mode relation
/// caches its column image via columns() when an operator first reads
/// it. Each lazy image is a LazyOnce cell, so a `const` relation may be
/// read from any number of threads at once.
class ExtendedRelation {
 public:
  ExtendedRelation() = default;
  ExtendedRelation(std::string name, SchemaPtr schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  /// \brief Wraps a column image as a relation in columnar mode. The
  /// store's row keys must be unique — the operators' outputs guarantee
  /// this by construction (a relation's keys are unique and the
  /// operators only ever narrow or disjointly combine key sets); the
  /// lazily-built index does not re-check.
  static ExtendedRelation AdoptColumns(ColumnStore store);

  /// \brief AdoptColumns plus a fully built key index (the EVCIMG03
  /// loader's path, restoring the persisted index image so a loaded
  /// catalog probes without re-hashing every key; the attribute
  /// preprocessor's, which indexes keys as it appends rows). The index's
  /// rows must be the store's rows in order.
  static ExtendedRelation AdoptColumnsWithIndex(ColumnStore store,
                                                EncodedKeyIndex index);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const SchemaPtr& schema() const { return schema_; }

  size_t size() const;
  bool empty() const { return size() == 0; }
  const std::vector<ExtendedTuple>& rows() const {
    return rows_.Get([this] { return MaterializeRows(); });
  }
  const ExtendedTuple& row(size_t i) const { return rows()[i]; }

  /// \brief Pre-sizes the row store and key index for `n` tuples, for
  /// builders that know their cardinality up front.
  void Reserve(size_t n) {
    PrepareForInsert();
    rows_.Mutable().reserve(n);
    key_index_.Mutable().Reserve(n);
  }

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
  /// that copy already-validated rows (ColumnStore::ToRelation) use it:
  /// per-tuple revalidation of unchanged evidence sets dominated their
  /// cost.
  Status InsertTrusted(ExtendedTuple tuple);

  /// \brief The key of `tuple` under this relation's schema.
  KeyVector KeyOf(const ExtendedTuple& tuple) const;

  /// \brief Writes the canonical byte encoding of `tuple`'s key cells to
  /// `out` (cleared first) — the index's storage form. Probing with the
  /// encoded form through FindByEncodedKey avoids allocating a KeyVector
  /// (and its Value copies) per lookup.
  void EncodeKeyOf(const ExtendedTuple& tuple, std::string* out) const;

  /// \brief Index of the row with key `key`, or NotFound.
  Result<size_t> FindByKey(const KeyVector& key) const;
  bool ContainsKey(const KeyVector& key) const;

  /// \brief FindByKey over an already-encoded key (see EncodeKeyOf).
  Result<size_t> FindByEncodedKey(std::string_view key) const;
  bool ContainsEncodedKey(std::string_view key) const {
    return ProbeEncodedKey(key) != EncodedKeyIndex::kNoRow;
  }

  /// \brief The allocation-free probe form: the row holding `key`, or
  /// EncodedKeyIndex::kNoRow — no Status is built on a miss. The hot
  /// operator probe loops use this.
  uint32_t ProbeEncodedKey(std::string_view key) const {
    return key_index().Find(key);
  }

  /// \brief The column-major image of this relation: the native store in
  /// columnar mode, a lazily-built cached image in row mode (invalidated
  /// by inserts).
  const ColumnStore& columns() const;

  /// \brief True while this relation's data is its column image — an
  /// operator output or a loaded image — rather than rows appended by
  /// Insert. Only an insert changes the mode; building the row image or
  /// the key index of a columnar relation does not, so a mapped image
  /// keeps its deferred verification however it has been read. The
  /// column-image file format persists a relation from its column image
  /// in either mode, so saving never builds row objects.
  bool columnar_mode() const { return columnar_; }

  /// \brief 1 once this columnar relation has converted its column
  /// image to row objects, else 0 (copies carry a built row image, so
  /// they report it too). Observability for tests asserting that
  /// columnar pipelines — e.g. save → load → scan through the
  /// column-image format — never materialize rows as a side effect.
  uint64_t rows_materialized() const {
    return columnar_ && rows_.built() ? 1 : 0;
  }

  /// \brief Checks every stored tuple against the schema and the CWA_ER
  /// invariant; used by property tests and after deserialization. A
  /// columnar relation first runs its column image's pending deferred
  /// checks, so a corrupt mapped image is reported, not just decoded.
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
  Status InsertImpl(ExtendedTuple tuple, bool require_positive_sn,
                    bool validate);
  /// Row-mode entry for inserts: materializes rows and the index when
  /// the relation is still columnar and switches it to row mode.
  void PrepareForInsert();
  std::vector<ExtendedTuple> MaterializeRows() const;
  EncodedKeyIndex BuildKeyIndex() const;
  const EncodedKeyIndex& key_index() const {
    return key_index_.Get([this] { return BuildKeyIndex(); });
  }

  std::string name_;
  SchemaPtr schema_;
  // Storage mode (see columnar_mode()); only AdoptColumns and
  // PrepareForInsert change it. A row-mode relation always holds built
  // rows_ and key_index_ cells, so their builders only run in columnar
  // mode, where columns_ always holds the native store.
  bool columnar_ = false;
  LazyOnce<std::vector<ExtendedTuple>> rows_{std::vector<ExtendedTuple>{}};
  LazyOnce<EncodedKeyIndex> key_index_{EncodedKeyIndex{}};
  // Column image: the native store in columnar mode, a cache in row mode
  // (shared so copies of an unchanged relation reuse it; reset by any
  // insert — copy-on-write at relation level).
  LazyOnce<std::shared_ptr<const ColumnStore>> columns_;
};

}  // namespace evident

#endif  // EVIDENT_CORE_EXTENDED_RELATION_H_
