#include "integration/preprocessor.h"

#include <cmath>
#include <cstdlib>
#include <string_view>
#include <unordered_set>

#include "common/str_util.h"
#include "core/column_store.h"
#include "text/evidence_literal.h"

namespace evident {

namespace {

/// String-keyed map probed with string_views (no key copy per probe).
template <typename V>
using ViewMap = std::unordered_map<std::string, V, EncodedKeyHash,
                                   std::equal_to<>>;

Result<double> ParseNumber(std::string_view text) {
  // strtod needs a terminated string.
  const std::string terminated(text);
  char* end = nullptr;
  const double x = std::strtod(terminated.c_str(), &end);
  if (terminated.empty() || end != terminated.c_str() + terminated.size()) {
    return Status::ParseError("bad number '" + terminated + "'");
  }
  return x;
}

/// kCopy's affine conversion. An int stays an int when the result is a
/// whole number inside int64's range; a non-finite result is rejected.
Result<Value> ApplyTransform(const LinearTransform& transform, Value v,
                             const std::string& target) {
  if (!v.is_numeric()) {
    return Status::InvalidArgument("linear transform on non-numeric value '" +
                                   v.ToString() + "' for attribute '" +
                                   target + "'");
  }
  const double converted = transform.scale * v.AsDouble() + transform.offset;
  if (!std::isfinite(converted)) {
    return Status::InvalidArgument("linear transform of '" + v.ToString() +
                                   "' for attribute '" + target +
                                   "' is not finite");
  }
  // [-2^63, 2^63): the doubles whose int64 conversion is defined.
  constexpr double kInt64Bound = 9223372036854775808.0;
  if (v.is_int() && converted >= -kInt64Bound && converted < kInt64Bound &&
      converted == static_cast<double>(static_cast<int64_t>(converted))) {
    // Preserve integer typing when the conversion lands on an integer
    // (e.g. cents → dollars on whole amounts).
    return Value(static_cast<int64_t>(converted));
  }
  return Value(converted);
}

/// One derivation compiled against the schema and the raw table.
struct CompiledDerivation {
  const AttributeDerivation* spec = nullptr;
  const AttributeDef* attr = nullptr;
  size_t target = 0;
  size_t source = 0;
  ViewMap<std::string> value_map;
  /// kVotes: value token → domain ordinal, or the lookup's failure.
  ViewMap<Result<size_t>> ordinals;
  /// kClassify: menu item → taxonomy entry (null = unknown item).
  ViewMap<const ValueSet*> categories;
  /// kClassify: SameDomain(classifier domain, attribute domain).
  bool classifier_domain_matches = true;
  // Per-row scratch, reused so steady-state rows allocate no buffers.
  VoteTokens votes;
  std::vector<const ValueSet*> items;

  std::string_view Mapped(std::string_view token) const {
    if (value_map.empty()) return token;
    auto it = value_map.find(token);
    return it == value_map.end() ? token : std::string_view(it->second);
  }

  const Result<size_t>& Ordinal(std::string_view token) {
    auto it = ordinals.find(token);
    if (it == ordinals.end()) {
      it = ordinals
               .emplace(std::string(token),
                        attr->domain->IndexOf(Value::Parse(Mapped(token))))
               .first;
    }
    return it->second;
  }

  const ValueSet* Category(std::string_view item) {
    auto it = categories.find(item);
    if (it == categories.end()) {
      it = categories
               .emplace(std::string(item),
                        spec->classifier->Find(std::string(Mapped(item))))
               .first;
    }
    return it->second;
  }

  /// Derives this attribute's cell from `raw` into `*cell`.
  Status Derive(const std::string& raw, Cell* cell) {
    switch (spec->kind) {
      case DerivationKind::kCopy: {
        Value v = Value::Parse(Mapped(TrimView(raw)));
        if (spec->transform.enabled) {
          EVIDENT_ASSIGN_OR_RETURN(
              v, ApplyTransform(spec->transform, std::move(v), spec->target));
        }
        *cell = std::move(v);
        return Status::OK();
      }
      case DerivationKind::kVotes: {
        EVIDENT_RETURN_NOT_OK(TokenizeVotes(raw, &votes));
        EVIDENT_ASSIGN_OR_RETURN(
            *cell, VoteTable::ConsolidateTokens(
                       votes, attr->domain,
                       [this](std::string_view token) -> const Result<size_t>& {
                         return Ordinal(token);
                       }));
        return Status::OK();
      }
      case DerivationKind::kClassify: {
        items.clear();
        const std::string_view menu(raw);
        size_t start = 0;
        for (size_t i = 0; i <= menu.size(); ++i) {
          if (i < menu.size() && menu[i] != '|') continue;
          const std::string_view item = TrimView(menu.substr(start, i - start));
          if (!item.empty()) items.push_back(Category(item));
          start = i + 1;
        }
        EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es,
                                 spec->classifier->ClassifyFound(items));
        if (!classifier_domain_matches) {
          return Status::Incompatible(
              "classifier domain '" + es.domain()->name() +
              "' does not match attribute '" + attr->name + "'");
        }
        *cell = std::move(es);
        return Status::OK();
      }
      case DerivationKind::kEvidenceLiteral: {
        EVIDENT_ASSIGN_OR_RETURN(*cell,
                                 ParseEvidenceLiteral(attr->domain, raw));
        return Status::OK();
      }
    }
    return Status::Internal("unknown derivation kind");
  }
};

/// The specification compiled once per Run: every name resolved to an
/// index, every derivation's memo empty.
struct CompiledSpec {
  std::vector<CompiledDerivation> derivations;
  bool read_membership = false;
  size_t sn_source = 0;
  size_t sp_source = 0;
};

Result<CompiledSpec> Compile(const SchemaPtr& schema,
                             const std::vector<AttributeDerivation>& specs,
                             const MembershipDerivation& membership,
                             const RawTable& input) {
  if (schema == nullptr) {
    return Status::InvalidArgument("preprocessor has no target schema");
  }
  EVIDENT_RETURN_NOT_OK(input.Validate());
  CompiledSpec compiled;
  compiled.derivations.reserve(specs.size());
  std::unordered_set<std::string> covered;
  for (const AttributeDerivation& d : specs) {
    EVIDENT_ASSIGN_OR_RETURN(size_t target_index, schema->IndexOf(d.target));
    EVIDENT_ASSIGN_OR_RETURN(size_t source_index,
                             input.ColumnIndex(d.source_column));
    if (!covered.insert(d.target).second) {
      return Status::InvalidArgument("attribute '" + d.target +
                                     "' derived twice");
    }
    const AttributeDef& attr = schema->attribute(target_index);
    const bool needs_evidence = d.kind != DerivationKind::kCopy;
    if (attr.is_uncertain() != needs_evidence) {
      return Status::InvalidArgument(
          "derivation of '" + d.target + "' (" +
          AttributeKindToString(attr.kind) +
          ") does not match its derivation kind");
    }
    if (d.kind == DerivationKind::kClassify && d.classifier == nullptr) {
      return Status::InvalidArgument("derivation of '" + d.target +
                                     "' needs a classifier");
    }
    CompiledDerivation& c = compiled.derivations.emplace_back();
    c.spec = &d;
    c.attr = &attr;
    c.target = target_index;
    c.source = source_index;
    c.value_map.insert(d.value_map.begin(), d.value_map.end());
    if (d.kind == DerivationKind::kClassify) {
      c.classifier_domain_matches =
          SameDomain(d.classifier->domain(), attr.domain);
    }
  }
  for (const AttributeDef& attr : schema->attributes()) {
    if (covered.count(attr.name) == 0) {
      return Status::InvalidArgument("attribute '" + attr.name +
                                     "' has no derivation rule");
    }
  }
  if (!membership.sn_column.empty()) {
    compiled.read_membership = true;
    EVIDENT_ASSIGN_OR_RETURN(compiled.sn_source,
                             input.ColumnIndex(membership.sn_column));
    EVIDENT_ASSIGN_OR_RETURN(compiled.sp_source,
                             input.ColumnIndex(membership.sp_column));
  }
  return compiled;
}

}  // namespace

Result<ExtendedRelation> AttributePreprocessor::Run(
    const RawTable& input) const {
  EVIDENT_ASSIGN_OR_RETURN(
      CompiledSpec spec, Compile(schema_, derivations_, membership_, input));
  const RelationSchema& schema = *schema_;
  const size_t rows = input.rows.size();

  ColumnStore store = ColumnStore::EmptyLike(schema_, input.name);
  store.ReserveRows(rows);
  store.ReserveKeys(rows);

  std::vector<Cell> cells(schema.size());
  for (const std::vector<std::string>& raw_row : input.rows) {
    for (CompiledDerivation& d : spec.derivations) {
      EVIDENT_RETURN_NOT_OK(d.Derive(raw_row[d.source], &cells[d.target]));
    }
    SupportPair membership{membership_.default_sn, membership_.default_sp};
    if (spec.read_membership) {
      EVIDENT_ASSIGN_OR_RETURN(membership.sn,
                               ParseNumber(TrimView(raw_row[spec.sn_source])));
      EVIDENT_ASSIGN_OR_RETURN(membership.sp,
                               ParseNumber(TrimView(raw_row[spec.sp_source])));
    }
    for (size_t a = 0; a < schema.size(); ++a) {
      EVIDENT_RETURN_NOT_OK(ValidateCell(schema.attribute(a), cells[a]));
    }
    EVIDENT_RETURN_NOT_OK(
        ValidateMembership(membership, /*require_positive_sn=*/true));
    EVIDENT_RETURN_NOT_OK(store.AppendRow(&cells, membership, input.name));
  }
  return ExtendedRelation::AdoptColumns(std::move(store));
}

}  // namespace evident
