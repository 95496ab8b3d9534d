#ifndef EVIDENT_COMMON_STR_UTIL_H_
#define EVIDENT_COMMON_STR_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace evident {

/// \brief Strips ASCII whitespace from both ends.
std::string Trim(std::string_view s);

/// \brief Trim without the copy: a view of `s` minus its leading and
/// trailing ASCII whitespace.
std::string_view TrimView(std::string_view s);

/// \brief Splits on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// \brief Splits on `sep` but only at depth zero with respect to the
/// bracket pairs (), {}, [] — used by the evidence-set literal parser and
/// the .erel reader where fields contain nested, comma-bearing literals.
std::vector<std::string> SplitTopLevel(std::string_view s, char sep);

/// \brief Joins with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// \brief True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief Levenshtein edit distance; used by the similarity-based entity
/// identifier.
size_t EditDistance(std::string_view a, std::string_view b);

/// \brief 1 - normalized edit distance, in [0,1]; 1 means equal strings.
double StringSimilarity(std::string_view a, std::string_view b);

/// \brief Formats a double with up to `max_decimals` digits, trimming
/// trailing zeros ("0.5", "0.33", "1").
std::string FormatMass(double x, int max_decimals = 6);

}  // namespace evident

#endif  // EVIDENT_COMMON_STR_UTIL_H_
