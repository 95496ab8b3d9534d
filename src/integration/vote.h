#ifndef EVIDENT_INTEGRATION_VOTE_H_
#define EVIDENT_INTEGRATION_VOTE_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/domain.h"
#include "common/result.h"
#include "ds/evidence_set.h"

namespace evident {

/// \brief A vote list ("d1:3; d2:2; {d35,d36}:1; *:1") tokenized in
/// place: per entry its vote count and the trimmed value tokens of its
/// subset, as views into the parsed text. An entry with no tokens is a
/// vote for Θ. A caller that tokenizes many lists reuses one instance,
/// so steady-state tokenizing allocates nothing.
struct VoteTokens {
  struct Entry {
    size_t first_value = 0;  // [first_value, end_value) into values
    size_t end_value = 0;
    double count = 0;
  };
  std::vector<Entry> entries;
  std::vector<std::string_view> values;

  /// \brief Total number of votes, summed in entry order.
  double TotalVotes() const;
};

/// \brief The one vote-list parser, shared by VoteTable::Parse and the
/// attribute preprocessor. Entries are separated by top-level ';' (the
/// bracket pairs (), {}, [] nest) and empty entries are skipped; each
/// entry is <subset>:<count>, where the subset is '*' (Θ), a
/// brace-enclosed comma list, or a single value token, and the count is
/// a positive number. Clears `out` first. Fails with ParseError on a
/// malformed entry or a list without entries, and with InvalidArgument
/// on a non-positive count.
Status TokenizeVotes(std::string_view text, VoteTokens* out);

/// \brief Raw survey statistics for one uncertain attribute of one
/// entity: votes cast for subsets of the attribute domain.
///
/// This is the paper's §1.2 group-voting model: each of a panel of
/// reviewers casts one vote; a vote names a single value when the
/// reviewer is sure, a set of values when the reviewer cannot
/// distinguish (e.g. "hunan or sichuan"), and abstention is modeled as a
/// vote for the whole frame Θ.
class VoteTable {
 public:
  VoteTable() = default;

  /// \brief Adds `count` votes for the subset `values`; an empty list is
  /// a vote for Θ (no classification information).
  Status AddVotes(std::vector<Value> values, double count);

  /// \brief Total number of votes cast.
  double TotalVotes() const;

  bool empty() const { return entries_.empty(); }

  /// \brief The paper's consolidation: mass of a subset = its vote share.
  /// Fails when no votes have been cast.
  Result<EvidenceSet> Consolidate(const DomainPtr& domain) const;

  /// \brief Consolidate over a tokenized list without building a table:
  /// `resolve` maps each value token to its index in `domain` (or the
  /// lookup's failure). The attribute preprocessor passes a memoised
  /// resolver, so a token's value map, Value::Parse and Domain::IndexOf
  /// run once per distinct token. Equals Parse(text)->Consolidate(domain)
  /// when `resolve` is Domain::IndexOf of Value::Parse of the token.
  static Result<EvidenceSet> ConsolidateTokens(
      const VoteTokens& tokens, const DomainPtr& domain,
      const std::function<const Result<size_t>&(std::string_view)>& resolve);

  /// \brief Parses a vote list (see TokenizeVotes) into a table, each
  /// value token read with Value::Parse.
  static Result<VoteTable> Parse(const std::string& text);

  std::string ToString() const;

 private:
  std::vector<std::pair<std::vector<Value>, double>> entries_;
};

}  // namespace evident

#endif  // EVIDENT_INTEGRATION_VOTE_H_
