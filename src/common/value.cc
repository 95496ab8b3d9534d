#include "common/value.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace evident {
namespace {

// Orders numeric values before strings; numerics compare by magnitude.
int Compare(const Value& a, const Value& b) {
  const bool an = a.is_numeric();
  const bool bn = b.is_numeric();
  if (an != bn) return an ? -1 : 1;
  if (an) {
    // Exact comparison when both are ints avoids double rounding.
    if (a.is_int() && b.is_int()) {
      const int64_t x = a.int_value();
      const int64_t y = b.int_value();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const int c = a.string_value().compare(b.string_value());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

}  // namespace

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kInt:
      return std::to_string(int_value());
    case Kind::kReal: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", real_value());
      // Trim to the shortest representation that round-trips.
      for (int prec = 1; prec < 17; ++prec) {
        char shorter[32];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, real_value());
        double back = 0;
        std::sscanf(shorter, "%lf", &back);
        if (back == real_value()) return shorter;
      }
      return buf;
    }
    case Kind::kString:
      return string_value();
  }
  return {};
}

Value Value::Parse(std::string_view text) {
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    return Value(std::string(text.substr(1, text.size() - 2)));
  }
  if (!text.empty()) {
    // Integer?
    int64_t i = 0;
    auto [iptr, iec] =
        std::from_chars(text.data(), text.data() + text.size(), i);
    if (iec == std::errc() && iptr == text.data() + text.size()) {
      return Value(i);
    }
    // Real?
    double d = 0;
    auto [dptr, dec] =
        std::from_chars(text.data(), text.data() + text.size(), d);
    if (dec == std::errc() && dptr == text.data() + text.size()) {
      return Value(d);
    }
  }
  return Value(std::string(text));
}

bool Value::operator==(const Value& other) const {
  // Cross-kind numeric equality (1 == 1.0) keeps the ordering total and
  // consistent with operator<.
  if (is_numeric() && other.is_numeric()) {
    return Compare(*this, other) == 0;
  }
  return rep_ == other.rep_;
}

bool Value::operator<(const Value& other) const {
  return Compare(*this, other) < 0;
}

void Value::AppendCanonicalKey(std::string* out) const {
  // Numerics canonicalize through double so that 1 and 1.0 (equal per
  // operator==) encode identically — mirroring Hash(). Integers a double
  // cannot represent exactly keep a lossless tagged form instead of
  // colliding with their rounded neighbours.
  if (is_numeric()) {
    double d = AsDouble();
    const bool representable =
        !is_int() ||
        (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
         static_cast<int64_t>(d) == int_value());
    if (representable) {
      if (d == 0.0) d = 0.0;  // collapse -0.0 (equal to 0.0) onto +0.0
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      out->push_back('\x01');
      for (int shift = 0; shift < 64; shift += 8) {
        out->push_back(static_cast<char>((bits >> shift) & 0xff));
      }
      return;
    }
    const uint64_t bits = static_cast<uint64_t>(int_value());
    out->push_back('\x02');
    for (int shift = 0; shift < 64; shift += 8) {
      out->push_back(static_cast<char>((bits >> shift) & 0xff));
    }
    return;
  }
  const std::string& s = string_value();
  const uint32_t length = static_cast<uint32_t>(s.size());
  out->push_back('\x03');
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((length >> shift) & 0xff));
  }
  out->append(s);
}

size_t Value::Hash() const {
  switch (kind()) {
    case Kind::kInt:
      // Hash ints through double so that 1 and 1.0 (which compare equal)
      // hash identically.
      return std::hash<double>()(static_cast<double>(int_value()));
    case Kind::kReal:
      return std::hash<double>()(real_value());
    case Kind::kString:
      return std::hash<std::string>()(string_value());
  }
  return 0;
}

}  // namespace evident
