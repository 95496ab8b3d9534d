// The naive attribute preprocessor: the row-by-row build the compiled
// AttributePreprocessor::Run replaced, kept as its differential oracle.
// Every cell is derived by string splitting (SplitTopLevel / Split /
// Trim, the value map applied to each token before Value::Parse), every
// column and attribute index is looked up by name per cell, and every
// row is appended with ExtendedRelation::Insert. It shares no parsing
// code with the engine's vote tokenizer.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "reference/reference.h"
#include "text/evidence_literal.h"

namespace evident {
namespace reference {

namespace {

using VoteList = std::vector<std::pair<std::vector<Value>, double>>;

std::string MapRawValue(
    const std::unordered_map<std::string, std::string>& value_map,
    const std::string& raw) {
  auto it = value_map.find(raw);
  return it == value_map.end() ? raw : it->second;
}

Result<double> ParseNumber(const std::string& text) {
  char* end = nullptr;
  const double x = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    return Status::ParseError("bad number '" + text + "'");
  }
  return x;
}

Status CheckVoteCount(double count) {
  if (count <= 0) {
    return Status::InvalidArgument("vote count must be positive, got " +
                                   std::to_string(count));
  }
  return Status::OK();
}

/// "d1:3; {d35,d36}:1; *:1" with each value token passed through
/// `value_map` before Value::Parse ('*' and the braces are read first).
Result<VoteList> ParseVotes(
    const std::string& text,
    const std::unordered_map<std::string, std::string>& value_map) {
  VoteList votes;
  for (const std::string& raw_entry : SplitTopLevel(text, ';')) {
    const std::string entry = Trim(raw_entry);
    if (entry.empty()) continue;
    const auto parts = SplitTopLevel(entry, ':');
    if (parts.size() != 2) {
      return Status::ParseError("vote entry '" + entry +
                                "' is not of the form <subset>:<count>");
    }
    const std::string subset = Trim(parts[0]);
    const std::string count_text = Trim(parts[1]);
    char* end = nullptr;
    const double count = std::strtod(count_text.c_str(), &end);
    if (end != count_text.c_str() + count_text.size() || count_text.empty()) {
      return Status::ParseError("bad vote count in '" + entry + "'");
    }
    std::vector<Value> values;
    if (subset == "*") {
      // Θ: leave empty.
    } else if (subset.size() >= 2 && subset.front() == '{' &&
               subset.back() == '}') {
      for (const std::string& v :
           Split(subset.substr(1, subset.size() - 2), ',')) {
        values.push_back(Value::Parse(MapRawValue(value_map, Trim(v))));
      }
    } else {
      values.push_back(Value::Parse(MapRawValue(value_map, subset)));
    }
    EVIDENT_RETURN_NOT_OK(CheckVoteCount(count));
    votes.emplace_back(std::move(values), count);
  }
  if (votes.empty()) {
    return Status::ParseError("vote table '" + text + "' has no entries");
  }
  return votes;
}

/// §1.2: mass of each listed subset = its vote share.
Result<EvidenceSet> Consolidate(const DomainPtr& domain,
                                const VoteList& votes) {
  double total = 0;
  for (const auto& [values, count] : votes) total += count;
  VoteList shares;
  for (const auto& [values, count] : votes) {
    shares.emplace_back(values, count / total);
  }
  return EvidenceSet::FromPairs(domain, shares);
}

Status ValidateSpec(const SchemaPtr& schema,
                    const std::vector<AttributeDerivation>& derivations,
                    const MembershipDerivation& membership,
                    const RawTable& input) {
  if (schema == nullptr) {
    return Status::InvalidArgument("preprocessor has no target schema");
  }
  EVIDENT_RETURN_NOT_OK(input.Validate());
  std::unordered_set<std::string> covered;
  for (const AttributeDerivation& d : derivations) {
    EVIDENT_ASSIGN_OR_RETURN(size_t target_index, schema->IndexOf(d.target));
    EVIDENT_RETURN_NOT_OK(input.ColumnIndex(d.source_column).status());
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
  }
  for (const AttributeDef& attr : schema->attributes()) {
    if (covered.count(attr.name) == 0) {
      return Status::InvalidArgument("attribute '" + attr.name +
                                     "' has no derivation rule");
    }
  }
  if (!membership.sn_column.empty()) {
    EVIDENT_RETURN_NOT_OK(input.ColumnIndex(membership.sn_column).status());
    EVIDENT_RETURN_NOT_OK(input.ColumnIndex(membership.sp_column).status());
  }
  return Status::OK();
}

}  // namespace

Result<ExtendedRelation> Preprocess(
    const SchemaPtr& schema,
    const std::vector<AttributeDerivation>& derivations,
    const MembershipDerivation& membership, const RawTable& input) {
  EVIDENT_RETURN_NOT_OK(ValidateSpec(schema, derivations, membership, input));
  ExtendedRelation out(input.name, schema);
  for (const std::vector<std::string>& raw_row : input.rows) {
    ExtendedTuple t;
    t.cells.resize(schema->size());
    for (const AttributeDerivation& d : derivations) {
      const size_t target_index = schema->IndexOf(d.target).value();
      const size_t source_index = input.ColumnIndex(d.source_column).value();
      const AttributeDef& attr = schema->attribute(target_index);
      const std::string& raw = raw_row[source_index];
      switch (d.kind) {
        case DerivationKind::kCopy: {
          Value v = Value::Parse(MapRawValue(d.value_map, Trim(raw)));
          if (d.transform.enabled) {
            if (!v.is_numeric()) {
              return Status::InvalidArgument(
                  "linear transform on non-numeric value '" + v.ToString() +
                  "' for attribute '" + d.target + "'");
            }
            const double converted =
                d.transform.scale * v.AsDouble() + d.transform.offset;
            if (!std::isfinite(converted)) {
              return Status::InvalidArgument(
                  "linear transform of '" + v.ToString() +
                  "' for attribute '" + d.target + "' is not finite");
            }
            if (v.is_int() && converted >= -0x1p63 && converted < 0x1p63 &&
                converted == static_cast<int64_t>(converted)) {
              v = Value(static_cast<int64_t>(converted));
            } else {
              v = Value(converted);
            }
          }
          t.cells[target_index] = std::move(v);
          break;
        }
        case DerivationKind::kVotes: {
          EVIDENT_ASSIGN_OR_RETURN(VoteList votes,
                                   ParseVotes(raw, d.value_map));
          EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es,
                                   Consolidate(attr.domain, votes));
          t.cells[target_index] = std::move(es);
          break;
        }
        case DerivationKind::kClassify: {
          std::vector<std::string> items;
          for (const std::string& item : Split(raw, '|')) {
            const std::string trimmed = Trim(item);
            if (!trimmed.empty()) {
              items.push_back(MapRawValue(d.value_map, trimmed));
            }
          }
          EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es,
                                   d.classifier->Classify(items));
          if (!SameDomain(es.domain(), attr.domain)) {
            return Status::Incompatible(
                "classifier domain '" + es.domain()->name() +
                "' does not match attribute '" + attr.name + "'");
          }
          t.cells[target_index] = std::move(es);
          break;
        }
        case DerivationKind::kEvidenceLiteral: {
          EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es,
                                   ParseEvidenceLiteral(attr.domain, raw));
          t.cells[target_index] = std::move(es);
          break;
        }
      }
    }
    if (!membership.sn_column.empty()) {
      const size_t sn_index = input.ColumnIndex(membership.sn_column).value();
      const size_t sp_index = input.ColumnIndex(membership.sp_column).value();
      EVIDENT_ASSIGN_OR_RETURN(double sn, ParseNumber(Trim(raw_row[sn_index])));
      EVIDENT_ASSIGN_OR_RETURN(double sp, ParseNumber(Trim(raw_row[sp_index])));
      t.membership = SupportPair{sn, sp};
    } else {
      t.membership = SupportPair{membership.default_sn, membership.default_sp};
    }
    EVIDENT_RETURN_NOT_OK(out.Insert(std::move(t)));
  }
  return out;
}

}  // namespace reference
}  // namespace evident
