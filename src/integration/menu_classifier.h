#ifndef EVIDENT_INTEGRATION_MENU_CLASSIFIER_H_
#define EVIDENT_INTEGRATION_MENU_CLASSIFIER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/domain.h"
#include "common/result.h"
#include "ds/evidence_set.h"

namespace evident {

/// \brief Derives evidence about a categorical attribute from a
/// collection of items classified against a taxonomy — the paper's §2.1
/// speciality model: "half the dishes on the menu are pure Cantonese, 1/3
/// are in {hunan, sichuan} and cannot be classified further, the rest
/// carry no classification information".
///
/// The taxonomy maps an item to the *set* of categories it is compatible
/// with; items mapped to multiple categories contribute mass to that
/// subset, and unknown items contribute mass to Θ (nonbelief).
class MenuClassifier {
 public:
  explicit MenuClassifier(DomainPtr category_domain)
      : domain_(std::move(category_domain)) {}

  /// \brief Registers an item as compatible with `categories` (all must
  /// be domain values). Re-registering an item overwrites its entry.
  Status AddItem(const std::string& item, const std::vector<Value>& categories);

  /// \brief Number of registered taxonomy entries.
  size_t TaxonomySize() const { return taxonomy_.size(); }

  const DomainPtr& domain() const { return domain_; }

  /// \brief The categories registered for `item`, or null when the
  /// item is not in the taxonomy.
  const ValueSet* Find(const std::string& item) const;

  /// \brief Classifies a menu: mass of a category subset = fraction of
  /// items mapped to exactly that subset; items absent from the taxonomy
  /// count towards Θ. Fails on an empty menu.
  Result<EvidenceSet> Classify(const std::vector<std::string>& items) const;

  /// \brief Classify over items already looked up with Find (null = not
  /// in the taxonomy), for callers that memoise the lookups — the
  /// attribute preprocessor looks each distinct item up once.
  Result<EvidenceSet> ClassifyFound(
      const std::vector<const ValueSet*>& found) const;

 private:
  DomainPtr domain_;
  std::unordered_map<std::string, ValueSet> taxonomy_;
};

}  // namespace evident

#endif  // EVIDENT_INTEGRATION_MENU_CLASSIFIER_H_
