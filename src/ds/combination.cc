#include "ds/combination.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "common/math_util.h"
#include "ds/combination_internal.h"

namespace evident {

namespace ds_internal {

KernelScratch& Scratch() {
  thread_local KernelScratch scratch;
  return scratch;
}

namespace {

/// Folds runs of equal words in a word-sorted term list, summing each
/// run front to back.
void MergeAdjacentWords(std::vector<std::pair<uint64_t, double>>* words) {
  size_t out = 0;
  for (size_t i = 0; i < words->size();) {
    size_t j = i + 1;
    double mass = (*words)[i].second;
    while (j < words->size() && (*words)[j].first == (*words)[i].first) {
      mass += (*words)[j].second;
      ++j;
    }
    (*words)[out].first = (*words)[i].first;
    (*words)[out].second = mass;
    ++out;
    i = j;
  }
  words->resize(out);
}

/// The pairwise merge for frames wider than kFmtMaxUniverse values.
double PairwiseWideSpans(const InlineSpan& a, const InlineSpan& b,
                         KernelScratch& s) {
  // Terms of a zero product are skipped and conflicts go to kappa. Small
  // products are merged by an insertion sort of the raw term list, which
  // keeps equal words in generation order; large ones accumulate through
  // the flat hash so the merge is O(terms).
  auto& words = s.words;
  words.clear();
  double kappa = 0.0;
  const size_t terms = a.size * b.size;
  if (terms <= kHashMergeMinTerms) {
    for (size_t i = 0; i < a.size; ++i) {
      const uint64_t xw = a.words[i];
      const double mx = a.masses[i];
      for (size_t j = 0; j < b.size; ++j) {
        const double product = mx * b.masses[j];
        if (product == 0.0) continue;
        const uint64_t zw = xw & b.words[j];
        if (zw == 0) {
          kappa += product;
        } else {
          words.emplace_back(zw, product);
        }
      }
    }
    for (size_t i = 1; i < words.size(); ++i) {
      const auto term = words[i];
      size_t k = i;
      for (; k > 0 && words[k - 1].first > term.first; --k) {
        words[k] = words[k - 1];
      }
      words[k] = term;
    }
    MergeAdjacentWords(&words);
    return kappa;
  }
  auto& accumulator = s.accumulator;
  accumulator.Reset(terms);
  for (size_t i = 0; i < a.size; ++i) {
    const uint64_t xw = a.words[i];
    const double mx = a.masses[i];
    for (size_t j = 0; j < b.size; ++j) {
      const double product = mx * b.masses[j];
      if (product == 0.0) continue;
      const uint64_t zw = xw & b.words[j];
      if (zw == 0) {
        kappa += product;
      } else {
        accumulator.Add(zw, product);
      }
    }
  }
  accumulator.Drain(&words);
  std::sort(words.begin(), words.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  return kappa;
}

}  // namespace

void SortAndMergeWords(std::vector<std::pair<uint64_t, double>>* words) {
  std::sort(words->begin(), words->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  MergeAdjacentWords(words);
}

void ZetaSuperset(double* q, size_t universe) {
  const size_t n = size_t{1} << universe;
  for (size_t i = 0; i < universe; ++i) {
    const size_t bit = size_t{1} << i;
    for (size_t s = 0; s < n; ++s) {
      if ((s & bit) == 0) q[s] += q[s | bit];
    }
  }
}

void MoebiusSuperset(double* q, size_t universe) {
  const size_t n = size_t{1} << universe;
  for (size_t i = 0; i < universe; ++i) {
    const size_t bit = size_t{1} << i;
    for (size_t s = 0; s < n; ++s) {
      if ((s & bit) == 0) q[s] -= q[s | bit];
    }
  }
}

bool FmtProfitable(size_t universe, size_t pairwise_terms) {
  if (universe == 0 || universe > kFmtMaxUniverse) return false;
  const uint64_t dense_ops = (3 * universe + 2) * (uint64_t{1} << universe);
  return 16 * static_cast<uint64_t>(pairwise_terms) > dense_ops;
}

double PairwiseInlineSpans(size_t universe, const InlineSpan& a,
                           const InlineSpan& b, KernelScratch& s) {
  if (universe > kFmtMaxUniverse) return PairwiseWideSpans(a, b, s);
  auto& words = s.words;
  words.clear();
  // Lattice merge: every term — conflicts included, at word 0 — adds
  // into its word's slot and marks the word in the touched bitmap, with
  // no branch per term. Scanning the bitmap yields the touched words in
  // ascending order, so nothing is sorted; the scan clears as it reads.
  LatticeAccumulator& lat = s.lattice_terms;
  double* const acc = lat.acc.data();
  for (size_t i = 0; i < a.size; ++i) {
    const uint64_t xw = a.words[i];
    const double mx = a.masses[i];
    for (size_t j = 0; j < b.size; ++j) {
      const uint64_t zw = xw & b.words[j];
      acc[zw] += mx * b.masses[j];
      lat.touched[zw >> 6] |= uint64_t{1} << (zw & 63);
      lat.top[zw >> 12] |= uint64_t{1} << ((zw >> 6) & 63);
    }
  }
  const double kappa = acc[0];
  for (size_t t = 0; t < std::size(lat.top); ++t) {
    for (uint64_t top = std::exchange(lat.top[t], 0); top != 0;
         top &= top - 1) {
      const size_t k = t * 64 + std::countr_zero(top);
      for (uint64_t bits = std::exchange(lat.touched[k], 0); bits != 0;
           bits &= bits - 1) {
        const uint64_t w = k * 64 + std::countr_zero(bits);
        const double mass = std::exchange(acc[w], 0.0);
        // A word whose products all underflowed to 0.0 is no focal
        // element.
        if (w != 0 && mass != 0.0) words.emplace_back(w, mass);
      }
    }
  }
  return kappa;
}

double FmtInlineSpans(size_t universe, const InlineSpan& a,
                      const InlineSpan& b, KernelScratch& s) {
  s.lattice.assign(size_t{1} << universe, 0.0);
  for (size_t i = 0; i < a.size; ++i) s.lattice[a.words[i]] += a.masses[i];
  ZetaSuperset(s.lattice.data(), universe);
  s.operand.assign(size_t{1} << universe, 0.0);
  for (size_t j = 0; j < b.size; ++j) s.operand[b.words[j]] += b.masses[j];
  ZetaSuperset(s.operand.data(), universe);
  for (size_t i = 0; i < s.lattice.size(); ++i) s.lattice[i] *= s.operand[i];
  MoebiusSuperset(s.lattice.data(), universe);
  // Gather, scaling the noise floor to the mass that actually survived
  // the product: in a deeply conflicting fold the genuine non-empty
  // masses can sum to far less than 1, and an absolute floor would
  // erase them all and fabricate total conflict.
  const std::vector<double>& q = s.lattice;
  double remaining = 0.0;
  for (size_t w = 1; w < q.size(); ++w) remaining += q[w];
  const double floor = kFmtMassFloor * std::min(1.0, std::fabs(remaining));
  auto& words = s.words;
  words.clear();
  for (size_t w = 1; w < q.size(); ++w) {
    if (q[w] > floor) words.emplace_back(w, q[w]);
  }
  return q[0] > kFmtMassFloor ? q[0] : 0.0;
}

}  // namespace ds_internal

namespace {

using ds_internal::FmtProfitable;
using ds_internal::InlineSpan;
using ds_internal::KernelScratch;
using ds_internal::MoebiusSuperset;
using ds_internal::Scratch;
using ds_internal::ZetaSuperset;

Status CheckSameUniverse(const MassFunction& m1, const MassFunction& m2) {
  if (m1.universe_size() != m2.universe_size()) {
    return Status::Incompatible(
        "cannot combine mass functions over different frames (" +
        std::to_string(m1.universe_size()) + " vs " +
        std::to_string(m2.universe_size()) + ")");
  }
  if (m1.FocalCount() == 0 || m2.FocalCount() == 0) {
    return Status::InvalidArgument("cannot combine an empty mass function");
  }
  return Status::OK();
}

/// Copies a mass function's focal store into the scratch span arrays;
/// the bridge from the row-store (ValueSet, mass) layout to the packed
/// layout the shared span kernels (and the ColumnStore) operate on.
InlineSpan GatherSpan(const MassFunction& m, std::vector<uint64_t>* words,
                      std::vector<double>* masses) {
  const auto& focals = m.focals();
  words->resize(focals.size());
  masses->resize(focals.size());
  for (size_t i = 0; i < focals.size(); ++i) {
    (*words)[i] = focals[i].first.InlineWord();
    (*masses)[i] = focals[i].second;
  }
  return InlineSpan{words->data(), masses->data(), focals.size()};
}

/// Scatters a mass function onto the dense subset lattice.
void DenseFromMass(const MassFunction& m, std::vector<double>* q) {
  q->assign(size_t{1} << m.universe_size(), 0.0);
  for (const auto& [set, mass] : m.focals()) {
    (*q)[set.InlineWord()] += mass;
  }
}

/// Gathers the dense lattice back into `out` (skipping the empty set,
/// whose mass is the conflict and is returned separately) and reports
/// kappa. Values at or below kFmtMassFloor are inverse-transform
/// round-off, not focal elements.
double DenseToMass(const std::vector<double>& q, MassFunction* out) {
  // Same relative-floor rule as FmtInlineSpans (see there for why).
  double remaining = 0.0;
  for (size_t w = 1; w < q.size(); ++w) remaining += q[w];
  const double floor = kFmtMassFloor * std::min(1.0, std::fabs(remaining));
  auto& words = Scratch().words;
  words.clear();
  for (size_t w = 1; w < q.size(); ++w) {
    if (q[w] > floor) words.emplace_back(w, q[w]);
  }
  out->AssignSortedInlineWords(words);
  return q[0] > kFmtMassFloor ? q[0] : 0.0;
}

/// Pairwise conjunctive product into `out` (universe already set);
/// returns kappa, the mass on empty intersections.
double ConjunctiveProductPairwise(const MassFunction& m1,
                                  const MassFunction& m2,
                                  MassFunction* out) {
  double kappa = 0.0;
  const size_t universe = m1.universe_size();
  auto& s = Scratch();
  if (universe <= ValueSet::kMaxInlineUniverse) {
    // Inline frames run through the shared span kernel — the same code
    // path the columnar batch kernel uses, so per-pair and batch
    // combination agree bitwise.
    const InlineSpan a = GatherSpan(m1, &s.gather_words_a, &s.gather_masses_a);
    const InlineSpan b = GatherSpan(m2, &s.gather_words_b, &s.gather_masses_b);
    kappa = ds_internal::PairwiseInlineSpans(universe, a, b, s);
    out->AssignSortedInlineWords(s.words);
    return kappa;
  }
  // Multi-word frames (over 64 values): merge through a hash map — the
  // distinct intersections are few, so only they get sorted at the end.
  auto& set_accumulator = s.set_accumulator;
  set_accumulator.clear();
  for (const auto& [x, mx] : m1.focals()) {
    for (const auto& [y, my] : m2.focals()) {
      const double product = mx * my;
      if (product == 0.0) continue;
      ValueSet z = x.Intersect(y);
      if (z.IsEmpty()) {
        kappa += product;
      } else {
        set_accumulator[std::move(z)] += product;
      }
    }
  }
  auto& entries = s.entries;
  entries.clear();
  entries.reserve(set_accumulator.size());
  for (const auto& [set, mass] : set_accumulator) {
    entries.emplace_back(set, mass);
  }
  out->AssignUnmerged(&entries);
  return kappa;
}

/// Fast-Möbius conjunctive product: masses → commonalities (zeta),
/// pointwise Q1·Q2, commonalities → masses (Möbius). Returns kappa.
double ConjunctiveProductFmt(const MassFunction& m1, const MassFunction& m2,
                             MassFunction* out) {
  const size_t universe = m1.universe_size();
  auto& s = Scratch();
  const InlineSpan a = GatherSpan(m1, &s.gather_words_a, &s.gather_masses_a);
  const InlineSpan b = GatherSpan(m2, &s.gather_words_b, &s.gather_masses_b);
  const double kappa = ds_internal::FmtInlineSpans(universe, a, b, s);
  out->AssignSortedInlineWords(s.words);
  return kappa;
}

/// The conjunctive product under a chosen (or cost-model-chosen) kernel.
MassFunction ConjunctiveProduct(const MassFunction& m1, const MassFunction& m2,
                                double* kappa_out, CombineBackend backend) {
  MassFunction out(m1.universe_size());
  bool use_fmt = false;
  switch (backend) {
    case CombineBackend::kPairwise:
      break;
    case CombineBackend::kFmt:
      use_fmt = m1.universe_size() > 0 &&
                m1.universe_size() <= kFmtMaxUniverse;
      break;
    case CombineBackend::kAuto:
      use_fmt = FmtProfitable(m1.universe_size(),
                              m1.FocalCount() * m2.FocalCount());
      break;
  }
  const double kappa = use_fmt ? ConjunctiveProductFmt(m1, m2, &out)
                               : ConjunctiveProductPairwise(m1, m2, &out);
  if (kappa_out != nullptr) *kappa_out = kappa;
  return out;
}

}  // namespace

const char* CombinationRuleToString(CombinationRule rule) {
  switch (rule) {
    case CombinationRule::kDempster:
      return "dempster";
    case CombinationRule::kTBM:
      return "tbm";
    case CombinationRule::kYager:
      return "yager";
    case CombinationRule::kMixing:
      return "mixing";
  }
  return "unknown";
}

Result<MassFunction> CombineDempster(const MassFunction& m1,
                                     const MassFunction& m2,
                                     double* kappa_out,
                                     CombineBackend backend) {
  EVIDENT_RETURN_NOT_OK(CheckSameUniverse(m1, m2));
  double kappa = 0.0;
  MassFunction out = ConjunctiveProduct(m1, m2, &kappa, backend);
  if (kappa_out != nullptr) *kappa_out = kappa;
  if (kappa >= 1.0 - kMassEpsilon) {
    return Status::TotalConflict(
        "Dempster combination of totally conflicting evidence (kappa == 1); "
        "the component databases disagree completely and the integrator "
        "must be notified");
  }
  EVIDENT_RETURN_NOT_OK(out.Normalize());
  return out;
}

Result<MassFunction> CombineTBM(const MassFunction& m1,
                                const MassFunction& m2,
                                double* kappa_out,
                                CombineBackend backend) {
  EVIDENT_RETURN_NOT_OK(CheckSameUniverse(m1, m2));
  double kappa = 0.0;
  MassFunction out = ConjunctiveProduct(m1, m2, &kappa, backend);
  if (kappa_out != nullptr) *kappa_out = kappa;
  if (kappa > 0.0) {
    (void)out.Add(ValueSet(out.universe_size()), kappa);
  }
  return out;
}

Result<MassFunction> CombineYager(const MassFunction& m1,
                                  const MassFunction& m2,
                                  double* kappa_out,
                                  CombineBackend backend) {
  EVIDENT_RETURN_NOT_OK(CheckSameUniverse(m1, m2));
  double kappa = 0.0;
  MassFunction out = ConjunctiveProduct(m1, m2, &kappa, backend);
  if (kappa_out != nullptr) *kappa_out = kappa;
  if (kappa > 0.0) {
    (void)out.Add(ValueSet::Full(out.universe_size()), kappa);
  }
  return out;
}

Result<MassFunction> CombineMixing(const MassFunction& m1,
                                   const MassFunction& m2) {
  EVIDENT_RETURN_NOT_OK(CheckSameUniverse(m1, m2));
  auto& entries = Scratch().entries;
  entries.clear();
  entries.reserve(m1.FocalCount() + m2.FocalCount());
  for (const auto& [set, mass] : m1.focals()) {
    entries.emplace_back(set, 0.5 * mass);
  }
  for (const auto& [set, mass] : m2.focals()) {
    entries.emplace_back(set, 0.5 * mass);
  }
  MassFunction out(m1.universe_size());
  out.AssignUnmerged(&entries);
  return out;
}

Result<MassFunction> Combine(const MassFunction& m1, const MassFunction& m2,
                             CombinationRule rule, double* kappa_out,
                             CombineBackend backend) {
  switch (rule) {
    case CombinationRule::kDempster:
      return CombineDempster(m1, m2, kappa_out, backend);
    case CombinationRule::kTBM:
      return CombineTBM(m1, m2, kappa_out, backend);
    case CombinationRule::kYager:
      return CombineYager(m1, m2, kappa_out, backend);
    case CombinationRule::kMixing: {
      if (kappa_out != nullptr) *kappa_out = 0.0;
      return CombineMixing(m1, m2);
    }
  }
  return Status::InvalidArgument("unknown combination rule");
}

Result<MassFunction> CombineAllMasses(const std::vector<MassFunction>& ms,
                                      CombinationRule rule,
                                      double* kappa_out) {
  if (ms.empty()) {
    return Status::InvalidArgument("CombineAllMasses over an empty list");
  }
  if (kappa_out != nullptr) *kappa_out = 0.0;
  for (size_t i = 1; i < ms.size(); ++i) {
    EVIDENT_RETURN_NOT_OK(CheckSameUniverse(ms.front(), ms[i]));
  }
  if (ms.size() == 1) return ms.front();

  const size_t universe = ms.front().universe_size();
  const bool conjunctive =
      rule == CombinationRule::kDempster || rule == CombinationRule::kTBM;

  if (!conjunctive) {
    // Yager and mixing are not associative; k-way means the left fold.
    MassFunction acc = ms.front();
    for (size_t i = 1; i < ms.size(); ++i) {
      Result<MassFunction> combined = Combine(acc, ms[i], rule);
      if (!combined.ok()) return combined.status();
      acc = std::move(combined).value();
    }
    return acc;
  }

  // Dempster/TBM are associative, so the fold may run any prefix
  // pairwise and finish in commonality space. Start pairwise — real
  // workloads' intersections collapse, keeping focal counts tiny — and
  // switch to the dense lattice the moment one step's focal product
  // grows past the transform cost; from then on each remaining operand
  // costs one zeta transform and a pointwise multiply, with a single
  // inverse transform at the end and no materialized intermediates.
  auto& s = Scratch();
  double surviving = 1.0;  // ∏ (1 - kappa_step) over pairwise steps
  bool dense = false;
  MassFunction acc = ms.front();
  for (size_t i = 1; i < ms.size(); ++i) {
    if (!dense &&
        FmtProfitable(universe, acc.FocalCount() * ms[i].FocalCount())) {
      DenseFromMass(acc, &s.lattice);
      ZetaSuperset(s.lattice.data(), universe);
      dense = true;
    }
    if (dense) {
      DenseFromMass(ms[i], &s.operand);
      ZetaSuperset(s.operand.data(), universe);
      for (size_t j = 0; j < s.lattice.size(); ++j) {
        s.lattice[j] *= s.operand[j];
      }
      continue;
    }
    double step_kappa = 0.0;
    Result<MassFunction> combined =
        Combine(acc, ms[i], rule, &step_kappa, CombineBackend::kPairwise);
    if (!combined.ok()) return combined.status();
    acc = std::move(combined).value();
    surviving *= 1.0 - step_kappa;
  }

  if (dense) {
    MoebiusSuperset(s.lattice.data(), universe);
    const double dense_kappa = DenseToMass(s.lattice, &acc);
    if (rule == CombinationRule::kDempster) {
      if (kappa_out != nullptr) {
        *kappa_out = 1.0 - surviving * (1.0 - dense_kappa);
      }
      if (dense_kappa >= 1.0 - kMassEpsilon) {
        return Status::TotalConflict(
            "Dempster combination of totally conflicting evidence "
            "(kappa == 1) across the component databases");
      }
      EVIDENT_RETURN_NOT_OK(acc.Normalize());
    } else {
      // TBM: the running empty-set mass went through the transform like
      // any other subset; restore it as a focal element.
      if (kappa_out != nullptr) *kappa_out = dense_kappa;
      if (dense_kappa > 0.0) (void)acc.Add(ValueSet(universe), dense_kappa);
    }
    return acc;
  }

  if (kappa_out != nullptr) {
    *kappa_out = rule == CombinationRule::kTBM ? acc.EmptyMass()
                                               : 1.0 - surviving;
  }
  return acc;
}

Result<double> ConflictMass(const MassFunction& m1, const MassFunction& m2) {
  EVIDENT_RETURN_NOT_OK(CheckSameUniverse(m1, m2));
  double kappa = 0.0;
  if (m1.universe_size() <= ValueSet::kMaxInlineUniverse) {
    for (const auto& [x, mx] : m1.focals()) {
      const uint64_t xw = x.InlineWord();
      for (const auto& [y, my] : m2.focals()) {
        if ((xw & y.InlineWord()) == 0) kappa += mx * my;
      }
    }
    return kappa;
  }
  for (const auto& [x, mx] : m1.focals()) {
    for (const auto& [y, my] : m2.focals()) {
      if (!x.Intersects(y)) kappa += mx * my;
    }
  }
  return kappa;
}

Result<EvidenceSet> CombineEvidence(const EvidenceSet& a, const EvidenceSet& b,
                                    double* kappa_out) {
  return CombineEvidence(a, b, CombinationRule::kDempster, kappa_out);
}

Result<EvidenceSet> CombineEvidence(const EvidenceSet& a, const EvidenceSet& b,
                                    CombinationRule rule, double* kappa_out) {
  if (!a.CompatibleWith(b)) {
    return Status::Incompatible("evidence sets over different domains: '" +
                                a.domain()->name() + "' vs '" +
                                b.domain()->name() + "'");
  }
  EVIDENT_ASSIGN_OR_RETURN(MassFunction combined,
                           Combine(a.mass(), b.mass(), rule, kappa_out));
  // TBM results may carry empty-set mass and deliberately fail
  // EvidenceSet::Make validation; normalize them into evidence sets by
  // dropping the empty mass for the caller-facing wrapper.
  if (rule == CombinationRule::kTBM && combined.EmptyMass() > 0.0) {
    EVIDENT_RETURN_NOT_OK(combined.Normalize());
  }
  return EvidenceSet::Make(a.domain(), std::move(combined));
}

Result<EvidenceSet> CombineEvidenceTrusted(const EvidenceSet& a,
                                           const EvidenceSet& b,
                                           CombinationRule rule,
                                           double* kappa_out) {
  EVIDENT_ASSIGN_OR_RETURN(MassFunction combined,
                           Combine(a.mass(), b.mass(), rule, kappa_out));
  if (rule == CombinationRule::kTBM && combined.EmptyMass() > 0.0) {
    EVIDENT_RETURN_NOT_OK(combined.Normalize());
  }
  return EvidenceSet::MakeTrusted(a.domain(), std::move(combined));
}

Result<EvidenceSet> CombineAll(const std::vector<EvidenceSet>& sets) {
  if (sets.empty()) {
    return Status::InvalidArgument("CombineAll over an empty list");
  }
  for (size_t i = 1; i < sets.size(); ++i) {
    if (!sets.front().CompatibleWith(sets[i])) {
      return Status::Incompatible(
          "evidence sets over different domains: '" +
          sets.front().domain()->name() + "' vs '" +
          sets[i].domain()->name() + "'");
    }
  }
  std::vector<MassFunction> masses;
  masses.reserve(sets.size());
  for (const EvidenceSet& es : sets) masses.push_back(es.mass());
  EVIDENT_ASSIGN_OR_RETURN(
      MassFunction combined,
      CombineAllMasses(masses, CombinationRule::kDempster));
  return EvidenceSet::Make(sets.front().domain(), std::move(combined));
}

Result<MassFunction> Discount(const MassFunction& m, double reliability) {
  if (reliability < 0.0 || reliability > 1.0) {
    return Status::OutOfRange("reliability must be in [0,1], got " +
                              std::to_string(reliability));
  }
  auto& entries = Scratch().entries;
  entries.clear();
  entries.reserve(m.FocalCount() + 1);
  for (const auto& [set, mass] : m.focals()) {
    entries.emplace_back(set, reliability * mass);
  }
  entries.emplace_back(ValueSet::Full(m.universe_size()), 1.0 - reliability);
  MassFunction out(m.universe_size());
  out.AssignUnmerged(&entries);
  return out;
}

Result<EvidenceSet> DiscountEvidence(const EvidenceSet& es,
                                     double reliability) {
  EVIDENT_ASSIGN_OR_RETURN(MassFunction m, Discount(es.mass(), reliability));
  return EvidenceSet::Make(es.domain(), std::move(m));
}

Result<MassFunction> Condition(const MassFunction& m, const ValueSet& given) {
  if (given.universe_size() != m.universe_size()) {
    return Status::Incompatible("conditioning set universe mismatch");
  }
  if (given.IsEmpty()) {
    return Status::InvalidArgument("cannot condition on the empty set");
  }
  MassFunction categorical(m.universe_size());
  EVIDENT_RETURN_NOT_OK(categorical.Add(given, 1.0));
  return CombineDempster(m, categorical);
}

Result<EvidenceSet> ConditionEvidence(const EvidenceSet& es,
                                      const std::vector<Value>& given) {
  EVIDENT_ASSIGN_OR_RETURN(ValueSet set, es.SetOf(given));
  EVIDENT_ASSIGN_OR_RETURN(MassFunction conditioned,
                           Condition(es.mass(), set));
  return EvidenceSet::Make(es.domain(), std::move(conditioned));
}

Result<std::vector<double>> PignisticTransform(const MassFunction& m) {
  EVIDENT_RETURN_NOT_OK(m.Validate());
  std::vector<double> probs(m.universe_size(), 0.0);
  for (const auto& [set, mass] : m.focals()) {
    const size_t count = set.Count();
    const double share = mass / static_cast<double>(count);
    if (set.IsInline()) {
      uint64_t w = set.InlineWord();
      while (w != 0) {
        probs[static_cast<size_t>(std::countr_zero(w))] += share;
        w &= w - 1;
      }
    } else {
      for (size_t i : set.Indices()) probs[i] += share;
    }
  }
  return probs;
}

}  // namespace evident
