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

Status ValidateCell(const AttributeDef& attr, const Cell& cell) {
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
        return Status::OutOfRange("value " + std::get<Value>(cell).ToString() +
                                  " outside domain of '" + attr.name + "'");
      }
      return Status::OK();
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
      return es.mass().Validate();
    }
  }
  return Status::OK();
}

Status ValidateMembership(const SupportPair& membership,
                          bool require_positive_sn) {
  EVIDENT_RETURN_NOT_OK(membership.Validate());
  if (require_positive_sn && !membership.HasPositiveSupport()) {
    return Status::InvalidArgument(
        "CWA_ER violation: stored tuples must have sn > 0, got " +
        membership.ToString());
  }
  return Status::OK();
}

ExtendedRelation::ExtendedRelation(std::string name, SchemaPtr schema)
    : ExtendedRelation(std::make_shared<ColumnStore>(
          ColumnStore::EmptyLike(std::move(schema), std::move(name)))) {}

ExtendedRelation::ExtendedRelation(std::shared_ptr<ColumnStore> store)
    : name_(store->name()), schema_(store->schema()), store_(std::move(store)) {}

ExtendedRelation ExtendedRelation::AdoptColumns(ColumnStore store) {
  return ExtendedRelation(std::make_shared<ColumnStore>(std::move(store)));
}

size_t ExtendedRelation::size() const { return store_->rows(); }

std::vector<ExtendedTuple> ExtendedRelation::MaterializeRows() const {
  std::vector<ExtendedTuple> rows;
  rows.reserve(store_->rows());
  for (size_t r = 0; r < store_->rows(); ++r) {
    rows.push_back(store_->MaterializeRow(r));
  }
  return rows;
}

uint32_t ExtendedRelation::ProbeEncodedKey(std::string_view key) const {
  return store_->FindKey(key);
}

Result<ColumnStore*> ExtendedRelation::MutableStore() {
  if (store_.use_count() > 1 || store_->deferred_verification_pending()) {
    // A corrupt mapped image must not be laundered into a relation that
    // no longer carries its deferred checks.
    EVIDENT_RETURN_NOT_OK(store_->EnsureAllVerified());
    auto owned = std::make_shared<ColumnStore>(*store_);
    owned->ClearDeferredVerification();
    store_ = std::move(owned);
    rows_.Reset();
  }
  return store_.get();
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
    EVIDENT_RETURN_NOT_OK(ValidateCell(schema_->attribute(i), tuple.cells[i]));
  }
  return ValidateMembership(tuple.membership, require_positive_sn);
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
  EVIDENT_ASSIGN_OR_RETURN(ColumnStore * store, MutableStore());
  EVIDENT_RETURN_NOT_OK(
      store->AppendRow(&tuple.cells, tuple.membership, name_));
  // A built row image is a view of the store; extend it in step.
  if (rows_.built()) {
    rows_.Mutable().push_back(store->MaterializeRow(store->rows() - 1));
  }
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

Status ExtendedRelation::ValidateInvariants() const {
  EVIDENT_RETURN_NOT_OK(store_->EnsureAllVerified());
  // Each row is checked through a transient tuple, so validating never
  // builds (or caches) the relation's row image.
  for (size_t i = 0; i < store_->rows(); ++i) {
    EVIDENT_RETURN_NOT_OK(ValidateTuple(store_->MaterializeRow(i),
                                        /*require_positive_sn=*/true));
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
