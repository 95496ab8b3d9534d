#ifndef EVIDENT_CORE_COLUMN_STORE_H_
#define EVIDENT_CORE_COLUMN_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/column_span.h"
#include "core/extended_relation.h"
#include "core/key_index.h"
#include "core/lazy_once.h"
#include "core/schema.h"
#include "core/support_pair.h"
#include "ds/combination.h"
#include "ds/evidence_set.h"

namespace evident {

/// \brief Optimizer statistics over one relation's column image: the row
/// count, a per-attribute distinct count (0 = unknown; `exact` is false
/// for sampled estimates), and 16-bin histograms of the membership sn/sp
/// supports (bin b counts rows with support in [b/16, (b+1)/16), the top
/// bin additionally holding support == 1). Cardinality estimation reads
/// them; nothing in the algebra does, so they never affect results.
struct TableStatistics {
  static constexpr size_t kHistogramBins = 16;

  struct Attribute {
    uint64_t distinct = 0;  // 0 = unknown (uncertain attributes)
    bool exact = false;     // true when counted, false when sampled
  };

  uint64_t row_count = 0;
  std::vector<Attribute> attributes;  // one per schema attribute
  std::vector<uint64_t> sn_histogram;  // kHistogramBins entries
  std::vector<uint64_t> sp_histogram;  // kHistogramBins entries

  /// The histogram bin a support value falls into.
  static size_t BinOf(double support) {
    const size_t bin = static_cast<size_t>(support * kHistogramBins);
    return bin >= kHistogramBins ? kHistogramBins - 1 : bin;
  }
};

/// \brief The in-memory representation of an extended relation: one
/// column per schema attribute, the membership support pairs as parallel
/// sn/sp arrays, and the relation's encoded keys with their index.
///
/// Key and definite attributes become plain Value columns. Uncertain
/// attributes over inline (≤ 64 value) domains — every paper domain —
/// pack every row's mass function into contiguous (word, mass) spans
/// with a per-row offset array, the layout the batch combination kernel
/// (CombineColumnBatch) and the columnar predicate paths consume
/// directly: a whole attribute's evidence is one flat scan instead of a
/// pointer chase through row objects. Uncertain attributes over wider
/// domains stay boxed as EvidenceSet objects (rare; the row kernels
/// handle them).
///
/// Rows enter one at a time through AppendRow (ExtendedRelation::Insert
/// and the attribute preprocessor) or in bulk through the operators'
/// splice primitives; MaterializeRow turns a row back into a tuple
/// bit-identical to the one appended.
class ColumnStore {
 public:
  /// One packed uncertain attribute. Row r's focal elements occupy
  /// words[offsets[r] .. offsets[r+1]) with parallel masses, in the mass
  /// function's focal-store order (ascending word).
  /// The three arrays are ColumnSpans so a loaded column image can
  /// borrow them straight out of an mmap'ed file; every mutating path
  /// (the splice primitives below) transparently detaches into owned
  /// storage first.
  struct EvidenceColumn {
    DomainPtr domain;               // the schema attribute's domain
    size_t universe = 0;            // == domain->size(), <= 64
    ColumnSpan<uint64_t> words;
    ColumnSpan<double> masses;
    ColumnSpan<uint32_t> offsets;   // rows + 1 entries

    FocalSpanColumn Spans() const {
      return FocalSpanColumn{words.data(), masses.data(), offsets.data()};
    }
    size_t FocalCount(size_t row) const {
      return offsets[row + 1] - offsets[row];
    }

    /// \brief Appends row `row` of `src` to this column: one packed
    /// span copy with the offset rebased onto this arena. The splice
    /// primitive of the columnar operators (Select's keep list, Union's
    /// unmatched sides, Join/Product's pair lists).
    void AppendRowFrom(const EvidenceColumn& src, size_t row) {
      const uint32_t first = src.offsets[row];
      const uint32_t last = src.offsets[row + 1];
      words.insert(words.end(), src.words.begin() + first,
                   src.words.begin() + last);
      masses.insert(masses.end(), src.masses.begin() + first,
                    src.masses.begin() + last);
      offsets.push_back(static_cast<uint32_t>(words.size()));
    }
  };

  /// A definite (or key) attribute as a contiguous value array.
  struct ValueColumn {
    std::vector<Value> values;
  };

  /// An uncertain attribute whose domain exceeds the inline word — kept
  /// as row-wise evidence objects (the pairwise multi-word kernel path).
  struct BoxedColumn {
    std::vector<EvidenceSet> sets;
  };

  enum class ColumnKind { kValue, kEvidence, kBoxed };

  ColumnStore() = default;

  /// \brief An empty store with `schema`'s column layout (kinds and
  /// slots prepared, zero rows) — the starting point for operators that
  /// build their output column-at-a-time; fill through the *_mut
  /// accessors and AppendMembership, keeping all columns the same
  /// length.
  static ColumnStore EmptyLike(SchemaPtr schema, std::string name);

  /// \brief A copy of `src` under a different schema of identical column
  /// layout (same attribute count, kinds and domains — only names and
  /// kind-preserving metadata may differ). The schema-only operators
  /// (RenameAttribute) use this to re-label a column image without
  /// materializing a single row.
  static ColumnStore WithSchema(const ColumnStore& src, SchemaPtr schema,
                                std::string name);

  /// \brief Splices a projected row subset of `src` into a fresh store:
  /// output attribute `a` (of `schema`, whose kinds and domains must
  /// match) takes the cells of `src` attribute `attr_indices[a]` at the
  /// rows listed in `keep`, in that order (ascending for the filters,
  /// rank order for ORDER BY); `memberships` is parallel to `keep` and
  /// becomes the membership column (see SpliceColumnsFrom). The
  /// row-subset primitive of the columnar operators (Select's keep list
  /// and the pushdown prefilter — identity `attr_indices` — ORDER BY's
  /// ranked rows, the v3 writer's partitions) and of the fused pipeline
  /// executor, which filters and projects in the same single splice.
  static ColumnStore SpliceRows(const ColumnStore& src, SchemaPtr schema,
                                std::string name,
                                const std::vector<size_t>& attr_indices,
                                const std::vector<uint32_t>& keep,
                                const std::vector<SupportPair>& memberships);

  /// \brief Appends one row whose cells (schema order) and membership
  /// the caller has already validated: its key is encoded once into the
  /// store's key arena and indexed, then each cell is moved out of
  /// `cells` into its column. Fails with `relation_name`'s AlreadyExists
  /// on a duplicate key, leaving the store and `cells` unchanged. An
  /// append drops the partition zone maps and the statistics (they no
  /// longer describe the rows). O(row size) amortized; the first append
  /// to a store builds its key index. The one append path of
  /// ExtendedRelation::Insert* and AttributePreprocessor::Run.
  Status AppendRow(std::vector<Cell>* cells, SupportPair membership,
                   const std::string& relation_name);

  /// \brief Materializes one row as a tuple (cells in schema order plus
  /// membership), bit-identical to the row that was appended.
  ExtendedTuple MaterializeRow(size_t row) const;

  /// \brief Writes the canonical encoding of row `row`'s key cells to
  /// `out` (cleared first) — the key index's storage form, straight off
  /// the contiguous key value columns.
  void EncodeKeyOfRow(size_t row, std::string* out) const;

  /// \brief The encoded-key arena of this store: every row's encoded
  /// key, built lazily on first use and cached alongside the column
  /// image. Catalog relations share their column image across queries,
  /// so repeated probe passes (the union/merge operators, the key index)
  /// encode each scan key once per relation instead of once per query.
  const EncodedKeys& encoded_keys() const {
    return encoded_keys_.Get([this] { return BuildEncodedKeys(); });
  }

  /// \brief The key index over encoded_keys() (hashes and slots only —
  /// the key bytes are the arena's), built lazily on first probe. Store
  /// keys are unique (AppendRow rejects duplicates; operator outputs
  /// are unique by construction), so the build does not re-check.
  const EncodedKeyIndex& key_index() const {
    return key_index_.Get([this] { return BuildKeyIndex(); });
  }

  /// \brief The row holding encoded key `key`, or EncodedKeyIndex::kNoRow.
  uint32_t FindKey(std::string_view key) const {
    return key_index().Find(encoded_keys(), key);
  }

  /// \brief The statistics of this store, built lazily on first use and
  /// cached alongside the column image (catalog relations share the
  /// image across queries, so each relation is profiled once, not once
  /// per plan). A sole key attribute's distinct count is its row count
  /// by the uniqueness invariant; other definite columns are counted
  /// exactly up to kStatisticsExactRows rows and estimated from a
  /// deterministic stride sample beyond that; uncertain columns report
  /// distinct = 0 (unknown).
  const TableStatistics& statistics() const {
    return statistics_.Get([this] { return BuildStatistics(); });
  }

  /// \brief Installs precomputed statistics (the column-image loader's
  /// path, restoring the persisted footer so a loaded catalog plans
  /// without re-profiling). Marks the cache built.
  void AdoptStatistics(TableStatistics stats) {
    statistics_.Set(std::move(stats));
  }

  /// Rows at or below which non-key distinct counts are exact.
  static constexpr size_t kStatisticsExactRows = 2048;

  const SchemaPtr& schema() const { return schema_; }
  const std::string& name() const { return name_; }
  size_t rows() const { return sn_.size(); }

  ColumnKind kind(size_t attr) const { return kinds_[attr]; }
  const ValueColumn& value_column(size_t attr) const {
    return value_columns_[slots_[attr]];
  }
  const EvidenceColumn& evidence_column(size_t attr) const {
    return evidence_columns_[slots_[attr]];
  }
  const BoxedColumn& boxed_column(size_t attr) const {
    return boxed_columns_[slots_[attr]];
  }

  /// \brief Membership supports as parallel arrays.
  const ColumnSpan<double>& sn() const { return sn_; }
  const ColumnSpan<double>& sp() const { return sp_; }
  SupportPair membership(size_t row) const { return {sn_[row], sp_[row]}; }

  /// \brief Materializes row `row`'s evidence for attribute `attr` as an
  /// EvidenceSet, for the row-store boundary. Handles both layouts: packed
  /// kEvidence columns are decoded, boxed (wide-frame) columns returned
  /// as stored.
  EvidenceSet MaterializeEvidence(size_t attr, size_t row) const;

  /// \name Output building (EmptyLike stores).
  /// @{
  ValueColumn& value_column_mut(size_t attr) {
    return value_columns_[slots_[attr]];
  }
  EvidenceColumn& evidence_column_mut(size_t attr) {
    return evidence_columns_[slots_[attr]];
  }
  BoxedColumn& boxed_column_mut(size_t attr) {
    return boxed_columns_[slots_[attr]];
  }
  void AppendMembership(SupportPair membership) {
    sn_.push_back(membership.sn);
    sp_.push_back(membership.sp);
  }
  /// The one splice loop: appends to output attributes first_attr,
  /// first_attr + 1, ... the cells of `src` attributes `attr_indices` at
  /// `rows`, in that order. Value columns are copied element-wise,
  /// packed focal spans are repacked with rebased offsets, boxed sets
  /// are shared. SpliceRows is one call of it; the join executor calls
  /// it once per operand, at that operand's offset in the product
  /// schema. Callers size the output with ReserveRows first.
  void SpliceColumnsFrom(const ColumnStore& src,
                         const std::vector<size_t>& attr_indices,
                         size_t first_attr, const std::vector<uint32_t>& rows);
  /// Pre-sizes every column and the memberships for `n` rows.
  void ReserveRows(size_t n);
  /// Pre-sizes the key arena and index for `n` more AppendRow calls.
  void ReserveKeys(size_t n);
  /// @}

  /// \name Partition zone maps.
  ///
  /// A partitioned relation (an EVCIMG03 image saved with a
  /// PartitionSpec) is stored as one global column image whose rows are
  /// ordered partition-major; each partition is a contiguous row range
  /// carrying a zone map — min/max of the membership supports and of
  /// every definite value column over its rows. Scans prune a partition
  /// when a bound conjunct is refuted by its zones (see
  /// BoundPredicate::RefutesPartition); an empty vector means the
  /// relation is monolithic.
  /// @{
  struct ValueZone {
    bool has = false;  // false: no zone (uncertain attr or empty range)
    Value min;
    Value max;
  };
  struct PartitionZone {
    size_t begin_row = 0;
    size_t end_row = 0;  // half-open [begin_row, end_row)
    double sn_min = 1.0, sn_max = 0.0;
    double sp_min = 1.0, sp_max = 0.0;
    std::vector<ValueZone> values;  // one per schema attribute
  };
  const std::vector<PartitionZone>& partitions() const { return partitions_; }
  void AdoptPartitions(std::vector<PartitionZone> partitions) {
    partitions_ = std::move(partitions);
  }
  /// @}

  /// \name Adoption paths (the column-image reader, which fills these
  /// while building the image).
  /// @{
  /// Installs the persisted key trailer of an EVCIMG03 image — the
  /// encoded-key arena and the index over it — and marks both lazy
  /// caches built.
  void AdoptKeys(EncodedKeys keys, EncodedKeyIndex index) {
    encoded_keys_.Set(std::move(keys));
    key_index_.Set(std::move(index));
  }
  /// Installs the membership arrays wholesale (possibly borrowed from a
  /// mapped image); both must have the same length as every column.
  void AdoptMemberships(ColumnSpan<double> sn, ColumnSpan<double> sp) {
    sn_ = std::move(sn);
    sp_ = std::move(sp);
  }
  /// @}

  /// \name Deferred per-partition verification.
  ///
  /// A mapped image is validated structurally at open (every offset,
  /// count and slot is bounds-checked — no access through this store can
  /// read out of bounds), but the O(bytes) semantic checks (chunk CRCs,
  /// mass-function invariants, CWA_ER, key-arena/index agreement) are
  /// deferred per partition so open cost stays O(partitions). The
  /// executors call EnsurePartitionVerified / EnsureAllVerified before
  /// reading rows; the first failure is sticky and is returned by every
  /// later call, so the first error a query surfaces equals the error an
  /// eager (owned) load of the same file would have reported. Partitions
  /// a scan prunes may never be verified — a pruned partition's bytes
  /// are trusted the way any unread page of a mapped database file is.
  /// @{
  using PartitionVerifier = std::function<Status(const ColumnStore&, size_t)>;
  void InstallDeferredVerification(size_t partition_count,
                                   PartitionVerifier verifier) {
    auto d = std::make_shared<DeferredVerify>();
    d->verifier = std::move(verifier);
    d->done.assign(partition_count, 0);
    deferred_ = std::move(d);
  }
  Status EnsurePartitionVerified(size_t partition) const;
  Status EnsureAllVerified() const;
  bool deferred_verification_pending() const { return deferred_ != nullptr; }
  /// Drops the deferred state. The owned (copied) loader calls this
  /// after driving every partition check eagerly — its verifier
  /// references the load-time byte buffer, so it must never be callable
  /// once the load returns.
  void ClearDeferredVerification() { deferred_.reset(); }
  /// @}

 private:
  EncodedKeys BuildEncodedKeys() const;
  EncodedKeyIndex BuildKeyIndex() const;
  TableStatistics BuildStatistics() const;
  void AppendCell(size_t attr, Cell* cell);

  struct DeferredVerify {
    PartitionVerifier verifier;
    std::mutex mu;
    std::vector<uint8_t> done;
    bool failed = false;
    Status failure;
  };

  SchemaPtr schema_;
  std::string name_;
  std::vector<ColumnKind> kinds_;   // per schema attribute
  std::vector<uint32_t> slots_;     // attr -> index into its kind's vector
  std::vector<ValueColumn> value_columns_;
  std::vector<EvidenceColumn> evidence_columns_;
  std::vector<BoxedColumn> boxed_columns_;
  ColumnSpan<double> sn_, sp_;
  // Partition row ranges + zone maps (empty = monolithic).
  std::vector<PartitionZone> partitions_;
  // Deferred verification state, shared by copies of this store (the
  // data a copy carries is bit-identical, so a verification performed
  // through any copy stands for all of them). Null = fully verified.
  std::shared_ptr<DeferredVerify> deferred_;
  LazyOnce<EncodedKeys> encoded_keys_;    // see encoded_keys()
  LazyOnce<EncodedKeyIndex> key_index_;   // see key_index()
  LazyOnce<TableStatistics> statistics_;  // see statistics()
};

}  // namespace evident

#endif  // EVIDENT_CORE_COLUMN_STORE_H_
