#include "core/column_store.h"

#include <cstdlib>
#include <limits>
#include <unordered_set>
#include <utility>

namespace evident {

ColumnStore ColumnStore::FromRelation(const ExtendedRelation& rel) {
  ColumnStore store;
  store.schema_ = rel.schema();
  store.name_ = rel.name();
  const size_t rows = rel.size();
  const size_t attrs = store.schema_ != nullptr ? store.schema_->size() : 0;
  store.kinds_.resize(attrs);
  store.slots_.resize(attrs);

  for (size_t a = 0; a < attrs; ++a) {
    const AttributeDef& attr = store.schema_->attribute(a);
    if (attr.kind != AttributeKind::kUncertain) {
      store.kinds_[a] = ColumnKind::kValue;
      store.slots_[a] = static_cast<uint32_t>(store.value_columns_.size());
      ValueColumn col;
      col.values.reserve(rows);
      for (size_t r = 0; r < rows; ++r) {
        col.values.push_back(std::get<Value>(rel.row(r).cells[a]));
      }
      store.value_columns_.push_back(std::move(col));
      continue;
    }
    if (attr.domain->size() > ValueSet::kMaxInlineUniverse) {
      store.kinds_[a] = ColumnKind::kBoxed;
      store.slots_[a] = static_cast<uint32_t>(store.boxed_columns_.size());
      BoxedColumn col;
      col.sets.reserve(rows);
      for (size_t r = 0; r < rows; ++r) {
        col.sets.push_back(std::get<EvidenceSet>(rel.row(r).cells[a]));
      }
      store.boxed_columns_.push_back(std::move(col));
      continue;
    }
    store.kinds_[a] = ColumnKind::kEvidence;
    store.slots_[a] = static_cast<uint32_t>(store.evidence_columns_.size());
    EvidenceColumn col;
    col.domain = attr.domain;
    col.universe = attr.domain->size();
    size_t total_focals = 0;
    for (size_t r = 0; r < rows; ++r) {
      total_focals +=
          std::get<EvidenceSet>(rel.row(r).cells[a]).mass().FocalCount();
    }
    // Spans are addressed with 32-bit offsets; a column with 2^32 focal
    // elements (> 64 GiB packed) exhausts memory long before this, so
    // the limit fails loudly instead of wrapping offsets silently.
    if (total_focals > std::numeric_limits<uint32_t>::max()) std::abort();
    col.words.reserve(total_focals);
    col.masses.reserve(total_focals);
    col.offsets.reserve(rows + 1);
    col.offsets.push_back(0);
    for (size_t r = 0; r < rows; ++r) {
      const MassFunction& mass =
          std::get<EvidenceSet>(rel.row(r).cells[a]).mass();
      for (const auto& [set, m] : mass.focals()) {
        col.words.push_back(set.InlineWord());
        col.masses.push_back(m);
      }
      col.offsets.push_back(static_cast<uint32_t>(col.words.size()));
    }
    store.evidence_columns_.push_back(std::move(col));
  }

  store.sn_.reserve(rows);
  store.sp_.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    store.sn_.push_back(rel.row(r).membership.sn);
    store.sp_.push_back(rel.row(r).membership.sp);
  }
  return store;
}

ColumnStore ColumnStore::EmptyLike(SchemaPtr schema, std::string name) {
  ColumnStore store;
  store.schema_ = std::move(schema);
  store.name_ = std::move(name);
  const size_t attrs = store.schema_ != nullptr ? store.schema_->size() : 0;
  store.kinds_.resize(attrs);
  store.slots_.resize(attrs);
  for (size_t a = 0; a < attrs; ++a) {
    const AttributeDef& attr = store.schema_->attribute(a);
    if (attr.kind != AttributeKind::kUncertain) {
      store.kinds_[a] = ColumnKind::kValue;
      store.slots_[a] = static_cast<uint32_t>(store.value_columns_.size());
      store.value_columns_.emplace_back();
    } else if (attr.domain->size() > ValueSet::kMaxInlineUniverse) {
      store.kinds_[a] = ColumnKind::kBoxed;
      store.slots_[a] = static_cast<uint32_t>(store.boxed_columns_.size());
      store.boxed_columns_.emplace_back();
    } else {
      store.kinds_[a] = ColumnKind::kEvidence;
      store.slots_[a] = static_cast<uint32_t>(store.evidence_columns_.size());
      EvidenceColumn col;
      col.domain = attr.domain;
      col.universe = attr.domain->size();
      col.offsets.push_back(0);
      store.evidence_columns_.push_back(std::move(col));
    }
  }
  return store;
}

ColumnStore ColumnStore::WithSchema(const ColumnStore& src, SchemaPtr schema,
                                    std::string name) {
  ColumnStore store;
  store.schema_ = std::move(schema);
  store.name_ = std::move(name);
  store.kinds_ = src.kinds_;
  store.slots_ = src.slots_;
  store.value_columns_ = src.value_columns_;
  store.evidence_columns_ = src.evidence_columns_;
  store.boxed_columns_ = src.boxed_columns_;
  store.sn_ = src.sn_;
  store.sp_ = src.sp_;
  // A schema relabel keeps the column data, so the profile, the
  // partition zones and any pending deferred verification carry over
  // (the verifier reads the store it is handed, and the relabeled
  // columns are bit-identical).
  store.statistics_ = src.statistics_;
  store.partitions_ = src.partitions_;
  store.deferred_ = src.deferred_;
  return store;
}

Status ColumnStore::EnsurePartitionVerified(size_t partition) const {
  if (deferred_ == nullptr) return Status::OK();
  DeferredVerify& d = *deferred_;
  std::lock_guard<std::mutex> lock(d.mu);
  // The first failure is sticky: once any partition fails, the image is
  // considered corrupt as a whole and every later touch reports the
  // same (first) error, matching what an eager load would have said.
  if (d.failed) return d.failure;
  if (partition >= d.done.size() || d.done[partition]) return Status::OK();
  Status status = d.verifier(*this, partition);
  if (!status.ok()) {
    d.failed = true;
    d.failure = status;
    return status;
  }
  d.done[partition] = 1;
  return Status::OK();
}

Status ColumnStore::EnsureAllVerified() const {
  if (deferred_ == nullptr) return Status::OK();
  const size_t count = deferred_->done.size();
  for (size_t p = 0; p < count; ++p) {
    EVIDENT_RETURN_NOT_OK(EnsurePartitionVerified(p));
  }
  return Status::OK();
}

ColumnStore ColumnStore::SpliceRows(
    const ColumnStore& src, SchemaPtr schema, std::string name,
    const std::vector<size_t>& attr_indices, const std::vector<uint32_t>& keep,
    const std::vector<SupportPair>& memberships) {
  ColumnStore out = EmptyLike(std::move(schema), std::move(name));
  out.ReserveRows(keep.size());
  const size_t attrs = out.schema_ != nullptr ? out.schema_->size() : 0;
  for (size_t a = 0; a < attrs; ++a) {
    const size_t src_attr = attr_indices[a];
    switch (src.kind(src_attr)) {
      case ColumnKind::kValue: {
        const std::vector<Value>& from = src.value_column(src_attr).values;
        std::vector<Value>& to = out.value_column_mut(a).values;
        to.reserve(keep.size());
        for (uint32_t i : keep) to.push_back(from[i]);
        break;
      }
      case ColumnKind::kEvidence: {
        const EvidenceColumn& from = src.evidence_column(src_attr);
        EvidenceColumn& to = out.evidence_column_mut(a);
        to.offsets.reserve(keep.size() + 1);
        for (uint32_t i : keep) to.AppendRowFrom(from, i);
        break;
      }
      case ColumnKind::kBoxed: {
        const std::vector<EvidenceSet>& from = src.boxed_column(src_attr).sets;
        std::vector<EvidenceSet>& to = out.boxed_column_mut(a).sets;
        to.reserve(keep.size());
        for (uint32_t i : keep) to.push_back(from[i]);
        break;
      }
    }
  }
  for (const SupportPair& membership : memberships) {
    out.AppendMembership(membership);
  }
  return out;
}

void ColumnStore::EncodeKeyOfRow(size_t row, std::string* out) const {
  out->clear();
  for (size_t a : schema_->key_indices()) {
    value_columns_[slots_[a]].values[row].AppendCanonicalKey(out);
  }
}

ColumnStore::EncodedKeys ColumnStore::BuildEncodedKeys() const {
  const size_t n = rows();
  EncodedKeys keys;
  keys.offsets.reserve(n + 1);
  keys.offsets.push_back(0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t a : schema_->key_indices()) {
      value_columns_[slots_[a]].values[r].AppendCanonicalKey(&keys.arena);
    }
    // The arena is offset-addressed with 32 bits, like the key index's;
    // a 4 GiB key arena exhausts memory long before this, so the limit
    // fails loudly instead of wrapping offsets silently.
    if (keys.arena.size() > std::numeric_limits<uint32_t>::max()) {
      std::abort();
    }
    keys.offsets.push_back(static_cast<uint32_t>(keys.arena.size()));
  }
  return keys;
}

TableStatistics ColumnStore::BuildStatistics() const {
  const size_t n = rows();
  const size_t attrs = schema_ != nullptr ? schema_->size() : 0;
  TableStatistics stats;
  stats.row_count = n;
  stats.attributes.assign(attrs, {});

  const bool sole_key =
      schema_ != nullptr && schema_->key_indices().size() == 1;
  std::string encoded;
  for (size_t a = 0; a < attrs; ++a) {
    TableStatistics::Attribute& stat = stats.attributes[a];
    if (kinds_[a] != ColumnKind::kValue) continue;  // uncertain: unknown
    if (sole_key && a == schema_->key_indices()[0]) {
      // A single-attribute key is unique by the relation invariant.
      stat.distinct = n;
      stat.exact = true;
      continue;
    }
    const std::vector<Value>& values = value_columns_[slots_[a]].values;
    // Canonical key encodings make 1 and 1.0 count as one value, the
    // same identity the equality kernels use.
    std::unordered_set<std::string> seen;
    if (n <= kStatisticsExactRows) {
      seen.reserve(n);
      for (size_t r = 0; r < n; ++r) {
        encoded.clear();
        values[r].AppendCanonicalKey(&encoded);
        seen.insert(encoded);
      }
      stat.distinct = seen.size();
      stat.exact = true;
      continue;
    }
    // Deterministic stride sample: the same store always yields the same
    // estimate, so plans (and their EXPLAIN goldens) are reproducible.
    const size_t stride = n / kStatisticsExactRows;
    size_t sampled = 0;
    seen.reserve(kStatisticsExactRows);
    for (size_t r = 0; r < n; r += stride, ++sampled) {
      encoded.clear();
      values[r].AppendCanonicalKey(&encoded);
      seen.insert(encoded);
    }
    if (seen.size() == sampled) {
      // Every sample distinct: the column is plausibly unique.
      stat.distinct = n;
    } else {
      const uint64_t scaled =
          static_cast<uint64_t>(seen.size()) * n / sampled;
      stat.distinct = scaled > n ? n : (scaled == 0 ? 1 : scaled);
    }
    stat.exact = false;
  }

  stats.sn_histogram.assign(TableStatistics::kHistogramBins, 0);
  stats.sp_histogram.assign(TableStatistics::kHistogramBins, 0);
  for (size_t r = 0; r < n; ++r) {
    ++stats.sn_histogram[TableStatistics::BinOf(sn_[r])];
    ++stats.sp_histogram[TableStatistics::BinOf(sp_[r])];
  }
  return stats;
}

ExtendedTuple ColumnStore::MaterializeRow(size_t row) const {
  ExtendedTuple t;
  const size_t attrs = schema_ != nullptr ? schema_->size() : 0;
  t.cells.reserve(attrs);
  for (size_t a = 0; a < attrs; ++a) {
    switch (kinds_[a]) {
      case ColumnKind::kValue:
        t.cells.emplace_back(value_column(a).values[row]);
        break;
      case ColumnKind::kEvidence:
        t.cells.emplace_back(MaterializeEvidence(a, row));
        break;
      case ColumnKind::kBoxed:
        t.cells.emplace_back(boxed_column(a).sets[row]);
        break;
    }
  }
  t.membership = membership(row);
  return t;
}

EvidenceSet ColumnStore::MaterializeEvidence(size_t attr, size_t row) const {
  // Wide frames live in boxed columns; indexing evidence_columns_ with
  // their slot would read some other attribute's packed data.
  if (kinds_[attr] == ColumnKind::kBoxed) return boxed_column(attr).sets[row];
  const EvidenceColumn& col = evidence_columns_[slots_[attr]];
  MassFunction mass(col.universe);
  const uint32_t begin = col.offsets[row];
  mass.AssignSortedInlineWords(col.words.data() + begin,
                               col.masses.data() + begin,
                               col.offsets[row + 1] - begin);
  return EvidenceSet::MakeTrusted(col.domain, std::move(mass));
}

Result<ExtendedRelation> ColumnStore::ToRelation() const {
  ExtendedRelation out(name_, schema_);
  const size_t n = rows();
  out.Reserve(n);
  for (size_t r = 0; r < n; ++r) {
    EVIDENT_RETURN_NOT_OK(out.InsertTrusted(MaterializeRow(r)));
  }
  return out;
}

}  // namespace evident
