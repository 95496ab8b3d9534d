#include "core/extended_relation.h"

#include <sstream>
#include <utility>

#include "core/column_store.h"

namespace evident {

namespace {

/// Reused per-thread encode buffer for the KeyVector-based probe API, so
/// FindByKey/ContainsKey allocate nothing in steady state.
std::string& EncodeScratch() {
  thread_local std::string scratch;
  return scratch;
}

void EncodeKeyVector(const KeyVector& key, std::string* out) {
  out->clear();
  for (const Value& v : key) v.AppendCanonicalKey(out);
}

}  // namespace

Status MakeDuplicateKeyError(const KeyVector& key,
                             const std::string& relation_name) {
  std::string message = "duplicate key";
  for (const Value& v : key) {
    message += " ";
    message += v.ToString();
  }
  message += " in relation '";
  message += relation_name;
  message += "'";
  return Status::AlreadyExists(std::move(message));
}

ExtendedRelation ExtendedRelation::AdoptColumns(ColumnStore store) {
  ExtendedRelation rel(store.name(), store.schema());
  rel.columns_.Set(std::make_shared<const ColumnStore>(std::move(store)));
  rel.columnar_ = true;
  rel.rows_.Reset();
  rel.key_index_.Reset();
  return rel;
}

ExtendedRelation ExtendedRelation::AdoptColumnsWithIndex(
    ColumnStore store, EncodedKeyIndex index) {
  ExtendedRelation rel = AdoptColumns(std::move(store));
  rel.key_index_.Set(std::move(index));
  return rel;
}

size_t ExtendedRelation::size() const {
  return columnar_ ? columns().rows() : rows().size();
}

std::vector<ExtendedTuple> ExtendedRelation::MaterializeRows() const {
  const ColumnStore& store = columns();
  std::vector<ExtendedTuple> rows;
  rows.reserve(store.rows());
  for (size_t r = 0; r < store.rows(); ++r) {
    rows.push_back(store.MaterializeRow(r));
  }
  return rows;
}

EncodedKeyIndex ExtendedRelation::BuildKeyIndex() const {
  const ColumnStore& store = columns();
  EncodedKeyIndex index;
  index.Reserve(store.rows());
  // The store's cached encoded-key arena survives across queries for
  // catalog relations (their column image is shared), so the index build
  // re-encodes nothing on repeat probes.
  const ColumnStore::EncodedKeys& keys = store.encoded_keys();
  for (size_t r = 0; r < store.rows(); ++r) {
    // Adopted stores carry unique keys by construction (see
    // AdoptColumns); a duplicate here would be an operator bug, and
    // first-wins matches the insert-time index's behaviour.
    index.Insert(keys.key(r));
  }
  return index;
}

void ExtendedRelation::PrepareForInsert() {
  if (!columnar_) return;
  (void)rows();
  (void)key_index();
  columnar_ = false;
}

Status ExtendedRelation::ValidateTuple(const ExtendedTuple& tuple,
                                       bool require_positive_sn) const {
  if (schema_ == nullptr) {
    return Status::Internal("relation '" + name_ + "' has no schema");
  }
  if (tuple.cells.size() != schema_->size()) {
    return Status::InvalidArgument(
        "tuple has " + std::to_string(tuple.cells.size()) +
        " cells, schema " + schema_->ToString() + " expects " +
        std::to_string(schema_->size()));
  }
  for (size_t i = 0; i < tuple.cells.size(); ++i) {
    const AttributeDef& attr = schema_->attribute(i);
    const Cell& cell = tuple.cells[i];
    switch (attr.kind) {
      case AttributeKind::kKey:
      case AttributeKind::kDefinite: {
        if (!CellIsValue(cell)) {
          // A definite evidence set is acceptable in spirit, but the model
          // stores definite attributes as plain Values for clarity.
          return Status::InvalidArgument(
              "attribute '" + attr.name + "' is " +
              AttributeKindToString(attr.kind) +
              " and must hold a definite value, not an evidence set");
        }
        if (attr.domain != nullptr &&
            !attr.domain->Contains(std::get<Value>(cell))) {
          return Status::OutOfRange("value " +
                                    std::get<Value>(cell).ToString() +
                                    " outside domain of '" + attr.name + "'");
        }
        break;
      }
      case AttributeKind::kUncertain: {
        if (CellIsValue(cell)) {
          return Status::InvalidArgument(
              "attribute '" + attr.name +
              "' is uncertain and must hold an evidence set");
        }
        const EvidenceSet& es = std::get<EvidenceSet>(cell);
        if (!SameDomain(es.domain(), attr.domain)) {
          return Status::Incompatible(
              "evidence set for '" + attr.name + "' is over domain '" +
              es.domain()->name() + "', schema declares '" +
              attr.domain->name() + "'");
        }
        EVIDENT_RETURN_NOT_OK(es.mass().Validate());
        break;
      }
    }
  }
  EVIDENT_RETURN_NOT_OK(tuple.membership.Validate());
  if (require_positive_sn && !tuple.membership.HasPositiveSupport()) {
    return Status::InvalidArgument(
        "CWA_ER violation: stored tuples must have sn > 0, got " +
        tuple.membership.ToString());
  }
  return Status::OK();
}

Status ExtendedRelation::InsertImpl(ExtendedTuple tuple,
                                    bool require_positive_sn, bool validate) {
  if (validate) {
    EVIDENT_RETURN_NOT_OK(ValidateTuple(tuple, require_positive_sn));
  }
  return InsertTrusted(std::move(tuple));
}

Status ExtendedRelation::Insert(ExtendedTuple tuple) {
  return InsertImpl(std::move(tuple), /*require_positive_sn=*/true,
                    /*validate=*/true);
}

Status ExtendedRelation::InsertUnchecked(ExtendedTuple tuple) {
  return InsertImpl(std::move(tuple), /*require_positive_sn=*/false,
                    /*validate=*/true);
}

Status ExtendedRelation::InsertTrusted(ExtendedTuple tuple) {
  PrepareForInsert();
  std::string& encoded = EncodeScratch();
  EncodeKeyOf(tuple, &encoded);
  if (key_index_.Mutable().Insert(encoded) != EncodedKeyIndex::kNoRow) {
    return MakeDuplicateKeyError(KeyOf(tuple), name_);
  }
  rows_.Mutable().push_back(std::move(tuple));
  columns_.Reset();
  return Status::OK();
}

KeyVector ExtendedRelation::KeyOf(const ExtendedTuple& tuple) const {
  KeyVector key;
  key.reserve(schema_->key_indices().size());
  for (size_t i : schema_->key_indices()) {
    key.push_back(std::get<Value>(tuple.cells[i]));
  }
  return key;
}

void ExtendedRelation::EncodeKeyOf(const ExtendedTuple& tuple,
                                   std::string* out) const {
  out->clear();
  for (size_t i : schema_->key_indices()) {
    std::get<Value>(tuple.cells[i]).AppendCanonicalKey(out);
  }
}

Result<size_t> ExtendedRelation::FindByKey(const KeyVector& key) const {
  std::string& encoded = EncodeScratch();
  EncodeKeyVector(key, &encoded);
  return FindByEncodedKey(encoded);
}

Result<size_t> ExtendedRelation::FindByEncodedKey(
    std::string_view key) const {
  const uint32_t row = ProbeEncodedKey(key);
  if (row == EncodedKeyIndex::kNoRow) {
    return Status::NotFound("no tuple with the given key in relation '" +
                            name_ + "'");
  }
  return static_cast<size_t>(row);
}

bool ExtendedRelation::ContainsKey(const KeyVector& key) const {
  std::string& encoded = EncodeScratch();
  EncodeKeyVector(key, &encoded);
  return ContainsEncodedKey(encoded);
}

const ColumnStore& ExtendedRelation::columns() const {
  return *columns_.Get([this] {
    return std::make_shared<const ColumnStore>(
        ColumnStore::FromRelation(*this));
  });
}

Status ExtendedRelation::ValidateInvariants() const {
  if (columnar_) EVIDENT_RETURN_NOT_OK(columns().EnsureAllVerified());
  for (const ExtendedTuple& t : rows()) {
    EVIDENT_RETURN_NOT_OK(ValidateTuple(t, /*require_positive_sn=*/true));
  }
  return Status::OK();
}

bool ExtendedRelation::ApproxEquals(const ExtendedRelation& other,
                                    double eps) const {
  if (schema_ == nullptr || other.schema_ == nullptr) {
    return schema_ == other.schema_;
  }
  if (!schema_->Equals(*other.schema_)) return false;
  if (size() != other.size()) return false;
  for (const ExtendedTuple& t : rows()) {
    auto found = other.FindByKey(KeyOf(t));
    if (!found.ok()) return false;
    const ExtendedTuple& o = other.row(*found);
    if (!t.membership.ApproxEquals(o.membership, eps)) return false;
    for (size_t i = 0; i < t.cells.size(); ++i) {
      if (!CellApproxEquals(t.cells[i], o.cells[i], eps)) return false;
    }
  }
  return true;
}

std::string ExtendedRelation::ToString(int mass_decimals) const {
  std::ostringstream os;
  os << name_ << " " << (schema_ ? schema_->ToString() : "(null schema)")
     << " [" << size() << " tuples]\n";
  for (const ExtendedTuple& t : rows()) {
    os << "  " << t.ToString(mass_decimals) << "\n";
  }
  return os.str();
}

}  // namespace evident
