#include "common/str_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace evident {

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

std::string_view TrimView(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitTopLevel(std::string_view s, char sep) {
  std::vector<std::string> out;
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size()) {
      out.emplace_back(s.substr(start, i - start));
      break;
    }
    const char c = s[i];
    if (c == '(' || c == '{' || c == '[') ++depth;
    if (c == ')' || c == '}' || c == ']') --depth;
    if (c == sep && depth == 0) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // One DP row, reused across calls on this thread: row[j] holds the
  // previous row's value until it is overwritten, and `diag` carries the
  // previous row's value at j - 1.
  thread_local std::vector<size_t> row;
  row.resize(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      const size_t next = std::min({row[j] + 1, row[j - 1] + 1, diag + cost});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[m];
}

double StringSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) /
                   static_cast<double>(longest);
}

std::string FormatMass(double x, int max_decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", max_decimals, x);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s.empty() ? "0" : s;
}

}  // namespace evident
