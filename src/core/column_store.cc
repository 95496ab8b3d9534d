#include "core/column_store.h"

#include <cstdlib>
#include <limits>
#include <unordered_set>
#include <utility>

namespace evident {

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
  // A schema relabel keeps the column data, so the keys, the profile,
  // the partition zones and any pending deferred verification carry
  // over (the verifier reads the store it is handed, and the relabeled
  // columns are bit-identical).
  store.encoded_keys_ = src.encoded_keys_;
  store.key_index_ = src.key_index_;
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
  out.SpliceColumnsFrom(src, attr_indices, 0, keep);
  for (const SupportPair& membership : memberships) {
    out.AppendMembership(membership);
  }
  return out;
}

void ColumnStore::SpliceColumnsFrom(const ColumnStore& src,
                                    const std::vector<size_t>& attr_indices,
                                    size_t first_attr,
                                    const std::vector<uint32_t>& rows) {
  for (size_t i = 0; i < attr_indices.size(); ++i) {
    const size_t a = first_attr + i;
    const size_t src_attr = attr_indices[i];
    switch (src.kind(src_attr)) {
      case ColumnKind::kValue: {
        const std::vector<Value>& from = src.value_column(src_attr).values;
        std::vector<Value>& to = value_column_mut(a).values;
        for (uint32_t r : rows) to.push_back(from[r]);
        break;
      }
      case ColumnKind::kEvidence: {
        const EvidenceColumn& from = src.evidence_column(src_attr);
        EvidenceColumn& to = evidence_column_mut(a);
        // Exact arena sizes: one pass over the span offsets.
        size_t focals = to.words.size();
        for (uint32_t r : rows) focals += from.offsets[r + 1] - from.offsets[r];
        to.words.reserve(focals);
        to.masses.reserve(focals);
        for (uint32_t r : rows) to.AppendRowFrom(from, r);
        break;
      }
      case ColumnKind::kBoxed: {
        const std::vector<EvidenceSet>& from = src.boxed_column(src_attr).sets;
        std::vector<EvidenceSet>& to = boxed_column_mut(a).sets;
        for (uint32_t r : rows) to.push_back(from[r]);
        break;
      }
    }
  }
}

void ColumnStore::EncodeKeyOfRow(size_t row, std::string* out) const {
  out->clear();
  for (size_t a : schema_->key_indices()) {
    value_columns_[slots_[a]].values[row].AppendCanonicalKey(out);
  }
}

EncodedKeys ColumnStore::BuildEncodedKeys() const {
  const size_t n = rows();
  EncodedKeys keys;
  keys.offsets.reserve(n + 1);
  for (size_t r = 0; r < n; ++r) {
    for (size_t a : schema_->key_indices()) {
      value_columns_[slots_[a]].values[r].AppendCanonicalKey(&keys.arena);
    }
    // The arena is offset-addressed with 32 bits (see
    // EncodedKeys::Append).
    if (keys.arena.size() > std::numeric_limits<uint32_t>::max()) {
      std::abort();
    }
    keys.offsets.push_back(static_cast<uint32_t>(keys.arena.size()));
  }
  return keys;
}

EncodedKeyIndex ColumnStore::BuildKeyIndex() const {
  const EncodedKeys& keys = encoded_keys();
  EncodedKeyIndex index;
  index.Reserve(keys.size());
  for (size_t r = 0; r < keys.size(); ++r) index.Insert(keys, keys.key(r));
  return index;
}

void ColumnStore::ReserveRows(size_t n) {
  for (ValueColumn& col : value_columns_) col.values.reserve(n);
  for (EvidenceColumn& col : evidence_columns_) col.offsets.reserve(n + 1);
  for (BoxedColumn& col : boxed_columns_) col.sets.reserve(n);
  sn_.reserve(n);
  sp_.reserve(n);
}

void ColumnStore::ReserveKeys(size_t n) {
  (void)key_index();
  EncodedKeys& keys = encoded_keys_.Mutable();
  keys.arena.reserve(keys.arena.size() + n * 12);
  keys.offsets.reserve(keys.offsets.size() + n);
  key_index_.Mutable().Reserve(n);
}

void ColumnStore::AppendCell(size_t attr, Cell* cell) {
  switch (kinds_[attr]) {
    case ColumnKind::kValue:
      value_column_mut(attr).values.push_back(
          std::move(std::get<Value>(*cell)));
      break;
    case ColumnKind::kEvidence: {
      EvidenceColumn& col = evidence_column_mut(attr);
      for (const auto& [set, m] : std::get<EvidenceSet>(*cell).mass().focals()) {
        col.words.push_back(set.InlineWord());
        col.masses.push_back(m);
      }
      // Spans are addressed with 32-bit offsets; a column with 2^32
      // focal elements (> 64 GiB packed) exhausts memory long before
      // this, so the limit fails loudly instead of wrapping silently.
      if (col.words.size() > std::numeric_limits<uint32_t>::max()) {
        std::abort();
      }
      col.offsets.push_back(static_cast<uint32_t>(col.words.size()));
      break;
    }
    case ColumnKind::kBoxed:
      boxed_column_mut(attr).sets.push_back(
          std::move(std::get<EvidenceSet>(*cell)));
      break;
  }
}

Status ColumnStore::AppendRow(std::vector<Cell>* cells,
                              SupportPair membership,
                              const std::string& relation_name) {
  thread_local std::string key;
  key.clear();
  for (size_t k : schema_->key_indices()) {
    std::get<Value>((*cells)[k]).AppendCanonicalKey(&key);
  }
  (void)key_index();  // the first append builds the arena and index
  EncodedKeys& keys = encoded_keys_.Mutable();
  if (key_index_.Mutable().Insert(keys, key) != EncodedKeyIndex::kNoRow) {
    KeyVector key_values;
    for (size_t k : schema_->key_indices()) {
      key_values.push_back(std::get<Value>((*cells)[k]));
    }
    return MakeDuplicateKeyError(key_values, relation_name);
  }
  keys.Append(key);
  for (size_t a = 0; a < kinds_.size(); ++a) AppendCell(a, &(*cells)[a]);
  AppendMembership(membership);
  if (!partitions_.empty()) partitions_.clear();
  if (statistics_.built()) statistics_.Reset();
  return Status::OK();
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

}  // namespace evident
