#include "integration/vote.h"

#include <cstdlib>
#include <span>
#include <sstream>

#include "common/str_util.h"

namespace evident {

namespace {

Status CheckVoteCount(double count) {
  if (count <= 0) {
    return Status::InvalidArgument("vote count must be positive, got " +
                                   std::to_string(count));
  }
  return Status::OK();
}

bool OpensBracket(char c) { return c == '(' || c == '{' || c == '['; }
bool ClosesBracket(char c) { return c == ')' || c == '}' || c == ']'; }

/// Appends one trimmed, non-empty <subset>:<count> entry to `out`.
Status TokenizeEntry(std::string_view entry, VoteTokens* out) {
  // Exactly one ':' outside brackets; the depth restarts at the entry.
  size_t colon = 0;
  size_t colons = 0;
  int depth = 0;
  for (size_t i = 0; i < entry.size(); ++i) {
    const char c = entry[i];
    if (OpensBracket(c)) ++depth;
    if (ClosesBracket(c)) --depth;
    if (c == ':' && depth == 0) {
      ++colons;
      colon = i;
    }
  }
  if (colons != 1) {
    return Status::ParseError("vote entry '" + std::string(entry) +
                              "' is not of the form <subset>:<count>");
  }
  const std::string_view subset = TrimView(entry.substr(0, colon));
  // strtod needs a terminated string; counts are short, so this stays in
  // the small-string buffer.
  const std::string count_text(TrimView(entry.substr(colon + 1)));
  char* end = nullptr;
  const double count = std::strtod(count_text.c_str(), &end);
  if (end != count_text.c_str() + count_text.size() || count_text.empty()) {
    return Status::ParseError("bad vote count in '" + std::string(entry) +
                              "'");
  }
  EVIDENT_RETURN_NOT_OK(CheckVoteCount(count));
  VoteTokens::Entry e;
  e.first_value = out->values.size();
  if (subset == "*") {
    // Θ: no value tokens.
  } else if (subset.size() >= 2 && subset.front() == '{' &&
             subset.back() == '}') {
    const std::string_view inner = subset.substr(1, subset.size() - 2);
    size_t start = 0;
    for (size_t i = 0; i <= inner.size(); ++i) {
      if (i == inner.size() || inner[i] == ',') {
        out->values.push_back(TrimView(inner.substr(start, i - start)));
        start = i + 1;
      }
    }
  } else {
    out->values.push_back(subset);
  }
  e.end_value = out->values.size();
  e.count = count;
  out->entries.push_back(e);
  return Status::OK();
}

/// The §1.2 consolidation behind VoteTable::Consolidate and
/// ConsolidateTokens: entry i carries mass count_of(i) / total, and the
/// shares of a repeated subset add up in entry order. Each entry's values
/// are resolved and then its share added, entry by entry, so the failure
/// reported is the first in entry order.
template <typename ValuesOf, typename CountOf, typename Resolve>
Result<EvidenceSet> ConsolidateEntries(const DomainPtr& domain,
                                       size_t entries, double total,
                                       ValuesOf values_of, CountOf count_of,
                                       Resolve resolve) {
  const size_t n = domain->size();
  MassFunction m(n);
  for (size_t i = 0; i < entries; ++i) {
    ValueSet set(n);
    bool theta = true;
    for (const auto& v : values_of(i)) {
      theta = false;
      const Result<size_t>& index = resolve(v);
      if (!index.ok()) return index.status();
      set.Set(*index);
    }
    if (theta) set = ValueSet::Full(n);
    EVIDENT_RETURN_NOT_OK(m.Add(set, count_of(i) / total));
  }
  return EvidenceSet::Make(domain, std::move(m));
}

}  // namespace

double VoteTokens::TotalVotes() const {
  double total = 0;
  for (const Entry& e : entries) total += e.count;
  return total;
}

Status TokenizeVotes(std::string_view text, VoteTokens* out) {
  out->entries.clear();
  out->values.clear();
  // Entries split at top-level ';' (SplitTopLevel semantics: the depth
  // runs over the whole text).
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size()) {
      const char c = text[i];
      if (OpensBracket(c)) ++depth;
      if (ClosesBracket(c)) --depth;
      if (c != ';' || depth != 0) continue;
    }
    const std::string_view entry = TrimView(text.substr(start, i - start));
    if (!entry.empty()) EVIDENT_RETURN_NOT_OK(TokenizeEntry(entry, out));
    start = i + 1;
  }
  if (out->entries.empty()) {
    return Status::ParseError("vote table '" + std::string(text) +
                              "' has no entries");
  }
  return Status::OK();
}

Status VoteTable::AddVotes(std::vector<Value> values, double count) {
  EVIDENT_RETURN_NOT_OK(CheckVoteCount(count));
  entries_.emplace_back(std::move(values), count);
  return Status::OK();
}

double VoteTable::TotalVotes() const {
  double total = 0;
  for (const auto& [values, count] : entries_) total += count;
  return total;
}

Result<EvidenceSet> VoteTable::Consolidate(const DomainPtr& domain) const {
  if (entries_.empty()) {
    return Status::InvalidArgument("cannot consolidate an empty vote table");
  }
  if (!domain) return Status::InvalidArgument("null domain");
  return ConsolidateEntries(
      domain, entries_.size(), TotalVotes(),
      [&](size_t i) -> const std::vector<Value>& {
        return entries_[i].first;
      },
      [&](size_t i) { return entries_[i].second; },
      [&](const Value& v) { return domain->IndexOf(v); });
}

Result<EvidenceSet> VoteTable::ConsolidateTokens(
    const VoteTokens& tokens, const DomainPtr& domain,
    const std::function<const Result<size_t>&(std::string_view)>& resolve) {
  return ConsolidateEntries(
      domain, tokens.entries.size(), tokens.TotalVotes(),
      [&](size_t i) {
        const VoteTokens::Entry& e = tokens.entries[i];
        return std::span<const std::string_view>(
            tokens.values.data() + e.first_value,
            e.end_value - e.first_value);
      },
      [&](size_t i) { return tokens.entries[i].count; }, resolve);
}

Result<VoteTable> VoteTable::Parse(const std::string& text) {
  VoteTokens tokens;
  EVIDENT_RETURN_NOT_OK(TokenizeVotes(text, &tokens));
  VoteTable table;
  for (const VoteTokens::Entry& e : tokens.entries) {
    std::vector<Value> values;
    values.reserve(e.end_value - e.first_value);
    for (size_t k = e.first_value; k < e.end_value; ++k) {
      values.push_back(Value::Parse(tokens.values[k]));
    }
    EVIDENT_RETURN_NOT_OK(table.AddVotes(std::move(values), e.count));
  }
  return table;
}

std::string VoteTable::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i) os << "; ";
    const auto& [values, count] = entries_[i];
    if (values.empty()) {
      os << "*";
    } else if (values.size() == 1) {
      os << values[0];
    } else {
      os << "{";
      for (size_t j = 0; j < values.size(); ++j) {
        if (j) os << ",";
        os << values[j];
      }
      os << "}";
    }
    os << ":" << count;
  }
  return os.str();
}

}  // namespace evident
