// Differential test of the compiled attribute preprocessor against the
// naive row-by-row oracle (reference::Preprocess): seeded raw tables with
// value-mapped votes and menus, wide (boxed) vote frames, evidence
// literals, linear transforms and read memberships, with malformed
// cells injected. Both sides must agree bit for bit on the column image
// (values, focal words, masses, offsets, memberships, row order, encoded
// keys) or on the first error's code and message.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/domain.h"
#include "common/rng.h"
#include "core/column_store.h"
#include "core/operations.h"
#include "integration/entity_identifier.h"
#include "integration/menu_classifier.h"
#include "integration/preprocessor.h"
#include "integration/tuple_merger.h"
#include "reference/reference.h"

namespace evident {
namespace {

template <typename T>
bool SameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Value::Kind::kInt:
      return a.int_value() == b.int_value();
    case Value::Kind::kReal:
      return SameBits(a.real_value(), b.real_value());
    case Value::Kind::kString:
      return a.string_value() == b.string_value();
  }
  return false;
}

bool SameMass(const MassFunction& a, const MassFunction& b) {
  if (a.FocalCount() != b.FocalCount()) return false;
  for (size_t f = 0; f < a.FocalCount(); ++f) {
    if (a.focals()[f].first != b.focals()[f].first ||
        !SameBits(a.focals()[f].second, b.focals()[f].second)) {
      return false;
    }
  }
  return true;
}

/// "" when the two column images are bit-identical, else the first
/// difference.
std::string DiffImages(const ColumnStore& got, const ColumnStore& want) {
  if (got.name() != want.name()) return "names differ";
  if (got.rows() != want.rows()) {
    return "row counts " + std::to_string(got.rows()) + " vs " +
           std::to_string(want.rows());
  }
  const size_t rows = got.rows();
  for (size_t a = 0; a < got.schema()->size(); ++a) {
    const std::string where = "attribute " + std::to_string(a);
    if (got.kind(a) != want.kind(a)) return where + ": column kinds differ";
    switch (got.kind(a)) {
      case ColumnStore::ColumnKind::kValue:
        for (size_t r = 0; r < rows; ++r) {
          if (!SameValue(got.value_column(a).values[r],
                         want.value_column(a).values[r])) {
            return where + " row " + std::to_string(r) + ": values differ";
          }
        }
        break;
      case ColumnStore::ColumnKind::kEvidence: {
        const auto& g = got.evidence_column(a);
        const auto& w = want.evidence_column(a);
        if (g.offsets.size() != w.offsets.size() ||
            g.words.size() != w.words.size()) {
          return where + ": packed sizes differ";
        }
        for (size_t i = 0; i < g.offsets.size(); ++i) {
          if (g.offsets[i] != w.offsets[i]) return where + ": offsets differ";
        }
        for (size_t i = 0; i < g.words.size(); ++i) {
          if (g.words[i] != w.words[i] || !SameBits(g.masses[i], w.masses[i])) {
            return where + " focal " + std::to_string(i) + ": differs";
          }
        }
        break;
      }
      case ColumnStore::ColumnKind::kBoxed:
        for (size_t r = 0; r < rows; ++r) {
          if (!SameMass(got.boxed_column(a).sets[r].mass(),
                        want.boxed_column(a).sets[r].mass())) {
            return where + " row " + std::to_string(r) + ": evidence differs";
          }
        }
        break;
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    if (!SameBits(got.sn()[r], want.sn()[r]) ||
        !SameBits(got.sp()[r], want.sp()[r])) {
      return "row " + std::to_string(r) + ": memberships differ";
    }
  }
  const auto& gk = got.encoded_keys();
  const auto& wk = want.encoded_keys();
  if (gk.arena != wk.arena || gk.offsets != wk.offsets) {
    return "encoded keys differ";
  }
  return "";
}

/// "" when the outcomes agree: both fail with the same code and message,
/// or both succeed with bit-identical column images, and the engine's
/// key index finds every row under its own key.
std::string DiffOutcomes(const Result<ExtendedRelation>& got,
                         const Result<ExtendedRelation>& want) {
  if (got.ok() != want.ok()) {
    return std::string("outcomes differ: engine ") +
           (got.ok() ? "ok" : got.status().ToString()) + ", reference " +
           (want.ok() ? "ok" : want.status().ToString());
  }
  if (!got.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return "errors differ: engine " + got.status().ToString() +
             ", reference " + want.status().ToString();
    }
    return "";
  }
  const std::string diff = DiffImages(got->columns(), want->columns());
  if (!diff.empty()) return diff;
  const auto& keys = got->columns().encoded_keys();
  for (size_t r = 0; r < got->size(); ++r) {
    if (got->ProbeEncodedKey(keys.key(r)) != r) {
      return "key index misses row " + std::to_string(r);
    }
  }
  return "";
}

/// Schema, taxonomy and derivation rules of the generated exports.
struct Spec {
  DomainPtr dish, wide, cuisine, grade;
  std::unique_ptr<MenuClassifier> classifier;
  SchemaPtr schema;
  std::vector<AttributeDerivation> derivations;
  MembershipDerivation membership;

  Spec() {
    std::vector<std::string> names;
    for (int i = 0; i < 6; ++i) names.push_back("d" + std::to_string(i));
    dish = Domain::MakeSymbolic("dish", names).value();
    names.clear();
    // Wider than one inline word: the wide attribute is a boxed column.
    for (int i = 0; i < 70; ++i) names.push_back("x" + std::to_string(i));
    wide = Domain::MakeSymbolic("wide", names).value();
    cuisine =
        Domain::MakeSymbolic("cuisine", {"c0", "c1", "c2", "c3", "c4", "c5"})
            .value();
    grade = Domain::MakeSymbolic("grade", {"A", "B", "C"}).value();
    classifier = std::make_unique<MenuClassifier>(cuisine);
    const std::vector<std::vector<const char*>> taxonomy = {
        {"c0"}, {"c1"}, {"c0", "c1"}, {"c2", "c3", "c4"}, {"c5"}, {"c1", "c5"}};
    for (size_t i = 0; i < taxonomy.size(); ++i) {
      std::vector<Value> categories;
      for (const char* c : taxonomy[i]) categories.emplace_back(c);
      EXPECT_TRUE(
          classifier->AddItem("i" + std::to_string(i), categories).ok());
    }
    schema = RelationSchema::Make(
                 {AttributeDef::Key("id"), AttributeDef::Definite("name"),
                  AttributeDef::Definite("grade", grade),
                  AttributeDef::Definite("price"),
                  AttributeDef::Uncertain("dish", dish),
                  AttributeDef::Uncertain("wide", wide),
                  AttributeDef::Uncertain("cuisine", cuisine),
                  AttributeDef::Uncertain("lit", cuisine)})
                 .value();
    auto derive = [](const char* target, const char* source,
                     DerivationKind kind) {
      AttributeDerivation d;
      d.target = target;
      d.source_column = source;
      d.kind = kind;
      return d;
    };
    // Deliberately not in schema order: derivation errors come in
    // derivation order, cell checks in schema order.
    derivations.push_back(derive("cuisine", "menu", DerivationKind::kClassify));
    derivations.back().classifier = classifier.get();
    derivations.back().value_map = {
        {"alias0", "i0"}, {"alias1", "i3"}, {"ghost", "u9"}};
    derivations.push_back(derive("id", "id", DerivationKind::kCopy));
    derivations.push_back(derive("dish", "dish_votes", DerivationKind::kVotes));
    derivations.back().value_map = {
        {"w0", "d0"}, {"w1", "d1"}, {"w2", "d2"}, {"bogus", "zz"},
        {"num", "7"}};
    derivations.push_back(derive("name", "name", DerivationKind::kCopy));
    derivations.push_back(derive("grade", "grade", DerivationKind::kCopy));
    derivations.push_back(derive("wide", "wide_votes", DerivationKind::kVotes));
    derivations.push_back(derive("price", "price", DerivationKind::kCopy));
    derivations.back().transform = LinearTransform::Of(100, 1);
    derivations.push_back(
        derive("lit", "lit", DerivationKind::kEvidenceLiteral));
    membership = MembershipDerivation{"sn", "sp", 1.0, 1.0};
  }
};

const Spec& TheSpec() {
  static const Spec* spec = new Spec();
  return *spec;
}

std::string Pick(Rng& rng, const std::vector<std::string>& options) {
  return options[rng.Below(options.size())];
}

/// Generates raw exports; `error_rate` is the chance that a cell is
/// replaced by a malformed or rejected variant.
class RawGenerator {
 public:
  RawGenerator(uint64_t seed, double error_rate)
      : rng_(seed), error_rate_(error_rate) {}

  RawTable Make(const std::string& name, size_t rows, size_t id_base) {
    RawTable t;
    t.name = name;
    t.columns = {"menu",  "id",    "dish_votes", "name", "sn",
                 "grade", "wide_votes", "price", "sp",   "lit"};
    for (size_t r = 0; r < rows; ++r) {
      std::string id = "r" + std::to_string(id_base + r);
      if (Bad() && r > 0) {
        id = Pick(rng_, {"r" + std::to_string(id_base + rng_.Below(r)),
                         "12", "12.0", " 12 "});
      }
      const double sn = 0.25 + 0.75 * static_cast<double>(rng_.Below(4)) / 4;
      std::string sn_text = std::to_string(sn);
      std::string sp_text = Pick(rng_, {"1", std::to_string(sn), "1.0"});
      if (Bad()) sn_text = Pick(rng_, {"0", "0.0", "x", "", "0.9 "});
      if (Bad()) sp_text = Pick(rng_, {"0.1", "1.5", "nan", "y"});
      t.rows.push_back({Menu(), id, Votes(false), Name(), sn_text, Grade(),
                        Votes(true), Price(), sp_text, Literal()});
    }
    return t;
  }

 private:
  bool Bad() { return error_rate_ > 0 && rng_.Chance(error_rate_); }

  std::string Token(bool wide) {
    if (wide) return "x" + std::to_string(rng_.Below(70));
    return Pick(rng_, {"d0", "d1", "d2", "d3", "d4", "d5", "w0", "w1", "w2",
                       " d4"});
  }

  std::string Votes(bool wide) {
    if (Bad()) {
      return Pick(rng_, {"d1", "d1:abc", "d1:-3", "{}:1", "{d1,d2:1",
                         "d1}:1", "d1:nan", "d1:inf", "q9:1", "bogus:1",
                         "num:2", "", " ; ", "d1:0", "d1:1:2", "{d1,,d2}:1",
                         "d1:1e-320; d2:1e300", "d1:0x10", "\"d1\":2",
                         "x70:1", "(d1:2", "[d1]:2", "d1:1; d2:inf",
                         "d1:2; q8:1; d2:nan"});
    }
    std::string out;
    const size_t entries = 1 + rng_.Below(3);
    for (size_t e = 0; e < entries; ++e) {
      if (e) out += Pick(rng_, {"; ", ";", " ;; "});
      const uint64_t shape = rng_.Below(6);
      if (shape == 0) {
        out += "*";
      } else if (shape == 1) {
        out += "{" + Token(wide) + "," + Token(wide) + "}";
      } else {
        out += Token(wide);
      }
      out += ":" + Pick(rng_, {"1", "2", "3", "0.5", "1e1", " 4 ", "7"});
    }
    return out;
  }

  std::string Menu() {
    if (Bad()) return Pick(rng_, {"", "|", " | "});
    std::string menu;
    const size_t items = 1 + rng_.Below(5);
    for (size_t i = 0; i < items; ++i) {
      if (i) menu += Pick(rng_, {"|", " | ", "||"});
      menu += Pick(rng_, {"i0", "i1", "i2", "i3", "i4", "i5", "alias0",
                          "alias1", "u1", "u2", "ghost"});
    }
    return menu;
  }

  std::string Name() {
    return Pick(rng_, {"wok", " wok ", "\"12\"", "cafe " +
                           std::to_string(rng_.Below(9)), "3.5", ""});
  }

  std::string Grade() {
    if (Bad()) return Pick(rng_, {"D", "a", "1"});
    return Pick(rng_, {"A", "B", "C", " B "});
  }

  std::string Price() {
    if (Bad()) {
      return Pick(rng_, {"abc", "9223372036854775807", "nan", "inf", "-inf",
                         "1e308", "-9223372036854775808"});
    }
    return Pick(rng_, {std::to_string(rng_.Below(1000)), "2.5", "-7", "0"});
  }

  std::string Literal() {
    if (Bad()) return Pick(rng_, {"[c9^1]", "[c0^0.5]", "garbage", ""});
    return Pick(rng_, {"[c0^0.5, Θ^0.5]", "[c1]", "[{c0,c1}^0.25, c2^0.75]"});
  }

  Rng rng_;
  double error_rate_;
};

Result<ExtendedRelation> Engine(const Spec& spec, const RawTable& raw) {
  return AttributePreprocessor(spec.schema, spec.derivations, spec.membership)
      .Run(raw);
}

Result<ExtendedRelation> Oracle(const Spec& spec, const RawTable& raw) {
  return reference::Preprocess(spec.schema, spec.derivations, spec.membership,
                               raw);
}

TEST(PreprocessDifferentialTest, SeededExportsMatchTheNaiveOracle) {
  const Spec& spec = TheSpec();
  size_t succeeded = 0, failed = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng pick(seed * 7919);
    const double error_rate =
        pick.Chance(0.4) ? 0.0 : 0.005 + 0.05 * pick.NextDouble();
    RawGenerator gen(seed, error_rate);
    const RawTable raw = gen.Make("S" + std::to_string(seed),
                                  pick.Below(40), 0);
    const auto got = Engine(spec, raw);
    const auto want = Oracle(spec, raw);
    const std::string diff = DiffOutcomes(got, want);
    ASSERT_EQ(diff, "") << "seed " << seed;
    (got.ok() ? succeeded : failed) += 1;
  }
  // Both outcomes must be exercised.
  EXPECT_GT(succeeded, 100u);
  EXPECT_GT(failed, 100u);
}

TEST(PreprocessDifferentialTest, DefaultMembershipAndSpecErrors) {
  const Spec& spec = TheSpec();
  RawGenerator gen(99, 0.0);
  const RawTable raw = gen.Make("T", 12, 0);
  auto expect_same = [&](const SchemaPtr& schema,
                         const std::vector<AttributeDerivation>& derivations,
                         const MembershipDerivation& membership,
                         const RawTable& input, const char* what) {
    const auto got =
        AttributePreprocessor(schema, derivations, membership).Run(input);
    const auto want =
        reference::Preprocess(schema, derivations, membership, input);
    EXPECT_EQ(DiffOutcomes(got, want), "") << what;
    return got.ok();
  };
  EXPECT_TRUE(expect_same(spec.schema, spec.derivations,
                          MembershipDerivation{"", "", 0.5, 0.75}, raw,
                          "default membership"));
  EXPECT_FALSE(expect_same(spec.schema, spec.derivations,
                           MembershipDerivation{"", "", 0.0, 0.75}, raw,
                           "default sn = 0"));
  EXPECT_FALSE(expect_same(spec.schema, spec.derivations,
                           MembershipDerivation{"sn", "nope", 1, 1}, raw,
                           "unknown sp column"));
  EXPECT_FALSE(expect_same(nullptr, spec.derivations, spec.membership, raw,
                           "no schema"));
  auto derivations = spec.derivations;
  derivations.push_back(derivations[1]);
  EXPECT_FALSE(expect_same(spec.schema, derivations, spec.membership, raw,
                           "derived twice"));
  derivations = spec.derivations;
  derivations.pop_back();
  EXPECT_FALSE(expect_same(spec.schema, derivations, spec.membership, raw,
                           "missing derivation"));
  derivations = spec.derivations;
  derivations[0].classifier = nullptr;
  EXPECT_FALSE(expect_same(spec.schema, derivations, spec.membership, raw,
                           "missing classifier"));
  derivations = spec.derivations;
  derivations[3].kind = DerivationKind::kVotes;
  EXPECT_FALSE(expect_same(spec.schema, derivations, spec.membership, raw,
                           "kind mismatch"));
  derivations = spec.derivations;
  derivations[2].source_column = "nope";
  EXPECT_FALSE(expect_same(spec.schema, derivations, spec.membership, raw,
                           "unknown source column"));
  // A classifier over another frame fails per row, after classifying.
  MenuClassifier other(spec.dish);
  ASSERT_TRUE(other.AddItem("i0", {Value("d0")}).ok());
  derivations = spec.derivations;
  derivations[0].classifier = &other;
  EXPECT_FALSE(expect_same(spec.schema, derivations, spec.membership, raw,
                           "classifier domain mismatch"));
  RawTable ragged = raw;
  ragged.rows[3].pop_back();
  EXPECT_FALSE(expect_same(spec.schema, spec.derivations, spec.membership,
                           ragged, "ragged row"));
  RawTable empty = raw;
  empty.rows.clear();
  EXPECT_TRUE(expect_same(spec.schema, spec.derivations, spec.membership,
                          empty, "no rows"));
}

TEST(PreprocessDifferentialTest, IdentifyAndMergeStayColumnar) {
  const Spec& spec = TheSpec();
  UnionOptions options;
  options.on_total_conflict = TotalConflictPolicy::kVacuous;
  options.on_definite_conflict = DefiniteConflictPolicy::kPreferLeft;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RawGenerator gen(seed, 0.0);
    // Overlapping key ranges: rows 10.. of A share keys with B.
    const RawTable raw_a = gen.Make("A", 30, 0);
    const RawTable raw_b = gen.Make("B", 30, 10);
    const auto a = Engine(spec, raw_a);
    const auto b = Engine(spec, raw_b);
    ASSERT_TRUE(a.ok() && b.ok()) << "seed " << seed;
    const auto matching = MatchByKey(*a, *b);
    ASSERT_TRUE(matching.ok()) << matching.status();
    EXPECT_EQ(matching->matches.size(), 20u);
    const auto merged = MergeTuples(*a, *b, *matching, options);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(a->rows_materialized(), 0u) << "seed " << seed;
    EXPECT_EQ(b->rows_materialized(), 0u) << "seed " << seed;

    const auto ra = Oracle(spec, raw_a);
    const auto rb = Oracle(spec, raw_b);
    ASSERT_TRUE(ra.ok() && rb.ok());
    const auto want_matching = MatchByKey(*ra, *rb);
    ASSERT_TRUE(want_matching.ok());
    ASSERT_EQ(matching->matches.size(), want_matching->matches.size());
    for (size_t m = 0; m < matching->matches.size(); ++m) {
      EXPECT_EQ(matching->matches[m].left_row,
                want_matching->matches[m].left_row);
      EXPECT_EQ(matching->matches[m].right_row,
                want_matching->matches[m].right_row);
    }
    EXPECT_EQ(matching->unmatched_left, want_matching->unmatched_left);
    EXPECT_EQ(matching->unmatched_right, want_matching->unmatched_right);
    EXPECT_EQ(reference::DiffByKey(
                  merged, reference::MergeTuples(*ra, *rb, *want_matching,
                                                 options)),
              "")
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace evident
