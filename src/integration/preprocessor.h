#ifndef EVIDENT_INTEGRATION_PREPROCESSOR_H_
#define EVIDENT_INTEGRATION_PREPROCESSOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/extended_relation.h"
#include "integration/menu_classifier.h"
#include "integration/raw_table.h"
#include "integration/vote.h"

namespace evident {

/// \brief How one global-schema attribute is derived from a source
/// (actual) column — the paper's "attribute preprocessing" step that maps
/// actual attributes into virtual attributes and is where uncertainty
/// enters (Figure 1, §1.1).
enum class DerivationKind {
  /// Copy the column value verbatim (keys and definite attributes).
  kCopy,
  /// The column holds survey vote statistics ("d1:3; d2:2; *:1");
  /// consolidate them into an evidence set (the §1.2 voting model).
  kVotes,
  /// The column holds a '|'-separated item list ("dishA|dishB");
  /// classify it against a taxonomy into an evidence set (§2.1).
  kClassify,
  /// The column holds an evidence-set literal ("[si^0.5, Θ^0.5]"),
  /// for sources that already export uncertainty.
  kEvidenceLiteral,
};

/// \brief Optional affine conversion for numeric kCopy columns — the
/// numeric face of the paper's attribute domain information (currency,
/// units, index bases): global = scale · source + offset.
struct LinearTransform {
  bool enabled = false;
  double scale = 1.0;
  double offset = 0.0;

  static LinearTransform Of(double scale, double offset = 0.0) {
    return LinearTransform{true, scale, offset};
  }
};

/// \brief Derivation rule for one target attribute.
struct AttributeDerivation {
  /// Target attribute name in the global schema.
  std::string target;
  /// Source column in the raw table.
  std::string source_column;
  DerivationKind kind = DerivationKind::kCopy;
  /// Optional source-value → global-value translation applied before
  /// interpretation (the paper's "attribute domain information"). Keys
  /// and replacement values are raw strings.
  std::unordered_map<std::string, std::string> value_map;
  /// Taxonomy for kClassify (owned elsewhere; must outlive preprocessing).
  const MenuClassifier* classifier = nullptr;
  /// Affine numeric conversion, applied to kCopy values after value_map;
  /// rejects non-numeric values and non-finite results when enabled.
  LinearTransform transform;
};

/// \brief Where tuple membership comes from.
struct MembershipDerivation {
  /// When set, read sn/sp from these columns; otherwise every tuple gets
  /// (default_sn, default_sp).
  std::string sn_column;
  std::string sp_column;
  double default_sn = 1.0;
  double default_sp = 1.0;
};

/// \brief Attribute preprocessing: turns a component database's RawTable
/// into an ExtendedRelation over the global schema, applying value maps
/// and constructing evidence sets from votes / item classification /
/// literals.
///
/// Run compiles the specification once per call — target, source and
/// membership column indices, plus a per-derivation memo from a value
/// token to its domain ordinal (value map, Value::Parse and
/// Domain::IndexOf run once per distinct token; a failed lookup is
/// memoised as its Status, exact because the lookup is pure) and from a
/// menu item to its taxonomy entry. It then makes one pass over the raw
/// rows, writing each row straight into a column image through
/// ColumnStore::AppendRow — the append path ExtendedRelation::Insert
/// uses — so no row objects are built and the result's encoded-key
/// arena and key index are filled as the rows are appended.
///
/// Errors are those of a row-by-row build with ExtendedRelation::Insert:
/// each row derives its cells in derivation order (the first failing
/// derivation is reported), then parses its membership, then checks the
/// cells in schema order with Insert's checks (ValidateCell,
/// ValidateMembership) and finally rejects a duplicate key.
class AttributePreprocessor {
 public:
  AttributePreprocessor(SchemaPtr target_schema,
                        std::vector<AttributeDerivation> derivations,
                        MembershipDerivation membership = {})
      : schema_(std::move(target_schema)),
        derivations_(std::move(derivations)),
        membership_(membership) {}

  /// \brief Validates the specification against the schema and the raw
  /// table's columns, then derives the extended relation (columnar).
  Result<ExtendedRelation> Run(const RawTable& input) const;

 private:
  SchemaPtr schema_;
  std::vector<AttributeDerivation> derivations_;
  MembershipDerivation membership_;
};

}  // namespace evident

#endif  // EVIDENT_INTEGRATION_PREPROCESSOR_H_
