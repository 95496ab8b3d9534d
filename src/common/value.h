#ifndef EVIDENT_COMMON_VALUE_H_
#define EVIDENT_COMMON_VALUE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"

namespace evident {

/// \brief A single definite attribute value: integer, real, or symbol.
///
/// Values appear as relation keys, as elements of a frame of discernment
/// (Domain), and as operands of theta-predicate comparisons. Values form a
/// total order: values of the same kind compare naturally; integers and
/// reals compare numerically with each other; any numeric value orders
/// before any string. This matches the paper's use of both symbolic
/// domains (specialities) and numeric domains (theta-predicate example).
class Value {
 public:
  enum class Kind { kInt = 0, kReal = 1, kString = 2 };

  Value() : rep_(int64_t{0}) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(const char* v) : rep_(std::string(v)) {}

  // The copy constructor builds the held alternative in place.
  // libstdc++ 12's variant copy constructor, when the string copy throws
  // (bad_alloc), destroys the half-built copy through an invalid index —
  // undefined behaviour an out-of-memory save or operator would hit.
  // (Its copy assignment already builds through the in-place path.)
  Value(const Value& other) : rep_(CopyRep(other.rep_)) {}
  Value(Value&&) noexcept = default;
  Value& operator=(const Value&) = default;
  Value& operator=(Value&&) noexcept = default;

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_real() const { return kind() == Kind::kReal; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_numeric() const { return !is_string(); }

  int64_t int_value() const { return std::get<int64_t>(rep_); }
  double real_value() const { return std::get<double>(rep_); }
  const std::string& string_value() const { return std::get<std::string>(rep_); }

  /// \brief Numeric reading of an int or real value.
  double AsDouble() const {
    return is_int() ? static_cast<double>(int_value()) : real_value();
  }

  /// \brief Renders ints as digits, reals in shortest round-trip form,
  /// strings verbatim.
  std::string ToString() const;

  /// \brief Parses a literal: integers, reals, otherwise a symbol.
  /// Quoted strings ("...") have quotes stripped and always parse as
  /// symbols, so "123" is the string 123.
  static Value Parse(std::string_view text);

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const;
  bool operator<=(const Value& other) const { return !(other < *this); }
  bool operator>(const Value& other) const { return other < *this; }
  bool operator>=(const Value& other) const { return !(*this < other); }

  size_t Hash() const;

  /// \brief Appends a compact byte encoding of this value to `out` such
  /// that equal values (per operator==, including cross-kind numeric
  /// equality like 1 == 1.0) encode identically and concatenations of
  /// encodings stay unambiguous (each piece is self-delimiting). This is
  /// the relation key index's storage form: probing encodes into a
  /// reused buffer instead of materializing temporary key vectors.
  ///
  /// Caveat: operator== is not transitive for int64 magnitudes beyond
  /// 2^53 (ints compare exactly with each other but through double
  /// rounding with reals), so no encoding can match it everywhere. The
  /// encoding keeps such ints lossless (distinct huge ints stay
  /// distinct, as int-int operator== demands) at the price of *not*
  /// matching a real that operator== would round-equate to one of them.
  void AppendCanonicalKey(std::string* out) const;

 private:
  using Rep = std::variant<int64_t, double, std::string>;

  static Rep CopyRep(const Rep& rep) {
    switch (rep.index()) {
      case 0:
        return Rep(std::in_place_index<0>, std::get<0>(rep));
      case 1:
        return Rep(std::in_place_index<1>, std::get<1>(rep));
      default:
        return Rep(std::in_place_index<2>, std::get<2>(rep));
    }
  }

  Rep rep_;
};

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace evident

#endif  // EVIDENT_COMMON_VALUE_H_
