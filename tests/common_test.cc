// Unit tests for the common substrate: Status/Result, string utilities,
// the deterministic RNG, domains, and raw tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/domain.h"
#include "common/math_util.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "integration/raw_table.h"

namespace evident {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status st = Status::NotFound("thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kIncompatible,
        StatusCode::kTotalConflict, StatusCode::kParseError,
        StatusCode::kOutOfRange, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  EVIDENT_ASSIGN_OR_RETURN(int half, Half(x));
  return Half(half);
}

TEST(ResultTest, ValuePath) {
  auto r = Half(4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2);
  EXPECT_EQ(r.value_or(-1), 2);
}

TEST(ResultTest, ErrorPath) {
  auto r = Half(3);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r{Status::OK()};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// --- str_util ----------------------------------------------------------------

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StrUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StrUtilTest, SplitTopLevelRespectsBrackets) {
  EXPECT_EQ(SplitTopLevel("a,{b,c},d", ','),
            (std::vector<std::string>{"a", "{b,c}", "d"}));
  EXPECT_EQ(SplitTopLevel("[x^0.5, y^0.5]|z", '|'),
            (std::vector<std::string>{"[x^0.5, y^0.5]", "z"}));
  EXPECT_EQ(SplitTopLevel("(a,(b,c)),d", ','),
            (std::vector<std::string>{"(a,(b,c))", "d"}));
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrUtilTest, ToLowerAndStartsWith) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(StartsWith("relation RA", "relation "));
  EXPECT_FALSE(StartsWith("rel", "relation"));
}

TEST(StrUtilTest, EditDistance) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("wok", "wok"), 0u);
}

TEST(StrUtilTest, EditDistanceMatchesTheFullMatrix) {
  // The one-row DP (reused across calls) against the textbook
  // (n+1) x (m+1) matrix, over random strings of varying lengths so a
  // long call is followed by shorter ones.
  auto full_matrix = [](const std::string& a, const std::string& b) {
    std::vector<std::vector<size_t>> d(a.size() + 1,
                                       std::vector<size_t>(b.size() + 1));
    for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
    for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      for (size_t j = 1; j <= b.size(); ++j) {
        d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                            d[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
      }
    }
    return d[a.size()][b.size()];
  };
  Rng rng(77);
  auto random_string = [&rng]() {
    std::string s(rng.Below(24), 'a');
    for (char& c : s) c = static_cast<char>('a' + rng.Below(4));
    return s;
  };
  for (int trial = 0; trial < 500; ++trial) {
    const std::string a = random_string();
    const std::string b = random_string();
    EXPECT_EQ(EditDistance(a, b), full_matrix(a, b)) << a << " vs " << b;
  }
}

TEST(StrUtilTest, StringSimilarity) {
  EXPECT_DOUBLE_EQ(StringSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(StringSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(StringSimilarity("abcd", "abce"), 0.75);
  EXPECT_DOUBLE_EQ(StringSimilarity("ab", "xy"), 0.0);
}

TEST(StrUtilTest, FormatMassTrimsZeros) {
  EXPECT_EQ(FormatMass(0.5), "0.5");
  EXPECT_EQ(FormatMass(1.0), "1");
  EXPECT_EQ(FormatMass(0.0), "0");
  EXPECT_EQ(FormatMass(1.0 / 3, 2), "0.33");
  EXPECT_EQ(FormatMass(0.126, 2), "0.13");  // rounded
}

// --- math_util ---------------------------------------------------------------

TEST(MathUtilTest, ApproxEqual) {
  EXPECT_TRUE(ApproxEqual(0.1 + 0.2, 0.3));
  EXPECT_FALSE(ApproxEqual(0.1, 0.2));
  EXPECT_TRUE(ApproxEqual(1.0, 1.05, 0.1));
}

TEST(MathUtilTest, ClampUnit) {
  EXPECT_DOUBLE_EQ(ClampUnit(-1e-15), 0.0);
  EXPECT_DOUBLE_EQ(ClampUnit(1.0 + 1e-15), 1.0);
  EXPECT_DOUBLE_EQ(ClampUnit(0.5), 0.5);
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(13), 13u);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(8);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t x = rng.Between(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    if (x == -2) saw_lo = true;
    if (x == 2) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

// --- Domain -------------------------------------------------------------------

TEST(DomainTest, MakeAndLookup) {
  auto d = Domain::MakeSymbolic("d", {"a", "b", "c"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->size(), 3u);
  EXPECT_EQ((*d)->IndexOf(Value("b")).value(), 1u);
  EXPECT_TRUE((*d)->Contains(Value("c")));
  EXPECT_FALSE((*d)->Contains(Value("z")));
  EXPECT_EQ((*d)->IndexOf(Value("z")).status().code(), StatusCode::kNotFound);
}

TEST(DomainTest, MakeRejectsBadInput) {
  EXPECT_FALSE(Domain::MakeSymbolic("", {"a"}).ok());
  EXPECT_FALSE(Domain::MakeSymbolic("d", {}).ok());
  EXPECT_FALSE(Domain::MakeSymbolic("d", {"a", "a"}).ok());
}

TEST(DomainTest, MakeIntRange) {
  auto d = Domain::MakeIntRange("r", -1, 2);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->size(), 4u);
  EXPECT_EQ((*d)->value(0), Value(int64_t{-1}));
  EXPECT_FALSE(Domain::MakeIntRange("r", 3, 2).ok());
}

TEST(DomainTest, EqualsAndSameDomain) {
  auto a = Domain::MakeSymbolic("d", {"a", "b"}).value();
  auto b = Domain::MakeSymbolic("d", {"a", "b"}).value();
  auto c = Domain::MakeSymbolic("d", {"b", "a"}).value();  // order matters
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_TRUE(SameDomain(a, a));
  EXPECT_TRUE(SameDomain(a, b));
  EXPECT_FALSE(SameDomain(a, c));
  EXPECT_FALSE(SameDomain(a, nullptr));
  EXPECT_TRUE(SameDomain(nullptr, nullptr));
}

TEST(DomainTest, ToString) {
  auto d = Domain::MakeSymbolic("col", {"x", "y"}).value();
  EXPECT_EQ(d->ToString(), "col{x,y}");
}

// --- RawTable ------------------------------------------------------------------

TEST(RawTableTest, ColumnIndexAndValidate) {
  RawTable t;
  t.name = "t";
  t.columns = {"a", "b"};
  t.rows = {{"1", "2"}};
  EXPECT_EQ(t.ColumnIndex("b").value(), 1u);
  EXPECT_FALSE(t.ColumnIndex("z").ok());
  EXPECT_TRUE(t.Validate().ok());
  t.rows.push_back({"only-one"});
  EXPECT_FALSE(t.Validate().ok());
}

}  // namespace
}  // namespace evident
