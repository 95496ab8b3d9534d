#include "integration/menu_classifier.h"

namespace evident {

Status MenuClassifier::AddItem(const std::string& item,
                               const std::vector<Value>& categories) {
  if (item.empty()) {
    return Status::InvalidArgument("taxonomy item name must be non-empty");
  }
  if (categories.empty()) {
    return Status::InvalidArgument("item '" + item +
                                   "' must map to at least one category");
  }
  ValueSet set(domain_->size());
  for (const Value& c : categories) {
    EVIDENT_ASSIGN_OR_RETURN(size_t index, domain_->IndexOf(c));
    set.Set(index);
  }
  taxonomy_[item] = std::move(set);
  return Status::OK();
}

const ValueSet* MenuClassifier::Find(const std::string& item) const {
  auto it = taxonomy_.find(item);
  return it == taxonomy_.end() ? nullptr : &it->second;
}

Result<EvidenceSet> MenuClassifier::Classify(
    const std::vector<std::string>& items) const {
  std::vector<const ValueSet*> found;
  found.reserve(items.size());
  for (const std::string& item : items) found.push_back(Find(item));
  return ClassifyFound(found);
}

Result<EvidenceSet> MenuClassifier::ClassifyFound(
    const std::vector<const ValueSet*>& found) const {
  if (found.empty()) {
    return Status::InvalidArgument("cannot classify an empty menu");
  }
  MassFunction m(domain_->size());
  m.Reserve(found.size());
  const double share = 1.0 / static_cast<double>(found.size());
  for (const ValueSet* set : found) {
    // An unknown item carries no classification information: Θ.
    EVIDENT_RETURN_NOT_OK(
        m.Add(set != nullptr ? *set : ValueSet::Full(domain_->size()), share));
  }
  return EvidenceSet::Make(domain_, std::move(m));
}

}  // namespace evident
