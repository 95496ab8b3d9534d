/// \file
/// The columnar batch combination kernel: N row pairs of packed focal
/// spans combined in one pass over contiguous memory. Pairs the kAuto
/// cost model routes to the fast-Möbius kernel run four at a time
/// through 4-lane interleaved zeta/Möbius transforms (AVX2 when
/// available, scalar otherwise — same per-lane operation sequence, so
/// dispatch never changes results). Everything else goes through the
/// same span-level pairwise kernel CombineMasses uses, so per-pair and
/// batch combination are bit-identical by construction.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/math_util.h"
#include "ds/combination.h"
#include "ds/combination_internal.h"

namespace evident {

namespace ds_internal {

namespace {

void Zeta4Scalar(double* q, size_t universe) {
  const size_t n = size_t{1} << universe;
  for (size_t i = 0; i < universe; ++i) {
    const size_t bit = size_t{1} << i;
    for (size_t s = 0; s < n; ++s) {
      if ((s & bit) != 0) continue;
      double* d = q + 4 * s;
      const double* u = q + 4 * (s | bit);
      d[0] += u[0];
      d[1] += u[1];
      d[2] += u[2];
      d[3] += u[3];
    }
  }
}

void Moebius4Scalar(double* q, size_t universe) {
  const size_t n = size_t{1} << universe;
  for (size_t i = 0; i < universe; ++i) {
    const size_t bit = size_t{1} << i;
    for (size_t s = 0; s < n; ++s) {
      if ((s & bit) != 0) continue;
      double* d = q + 4 * s;
      const double* u = q + 4 * (s | bit);
      d[0] -= u[0];
      d[1] -= u[1];
      d[2] -= u[2];
      d[3] -= u[3];
    }
  }
}

void Mul4Scalar(double* acc, const double* op, size_t count) {
  for (size_t i = 0; i < count; ++i) acc[i] *= op[i];
}

constexpr Lattice4Fns kScalarLattice4 = {Zeta4Scalar, Moebius4Scalar,
                                         Mul4Scalar};

std::atomic<bool> g_simd_enabled{true};
std::atomic<const Lattice4Fns*> g_lattice4{nullptr};

const Lattice4Fns* ResolveLattice4() {
  if (g_simd_enabled.load(std::memory_order_relaxed)) {
    if (const Lattice4Fns* avx2 = GetAvx2Lattice4()) return avx2;
  }
  return &kScalarLattice4;
}

}  // namespace

const Lattice4Fns& Lattice4() {
  const Lattice4Fns* fns = g_lattice4.load(std::memory_order_acquire);
  if (fns == nullptr) {
    fns = ResolveLattice4();
    g_lattice4.store(fns, std::memory_order_release);
  }
  return *fns;
}

}  // namespace ds_internal

void SetBatchSimdEnabled(bool enabled) {
  ds_internal::g_simd_enabled.store(enabled, std::memory_order_relaxed);
  ds_internal::g_lattice4.store(ds_internal::ResolveLattice4(),
                                std::memory_order_release);
}

bool BatchSimdActive() {
  return &ds_internal::Lattice4() != &ds_internal::kScalarLattice4;
}

namespace {

using ds_internal::InlineSpan;
using ds_internal::KernelScratch;
using ds_internal::Lattice4;

constexpr uint32_t kNoFmtSlot = std::numeric_limits<uint32_t>::max();

InlineSpan SpanOfRow(const FocalSpanColumn& col, uint32_t row) {
  const uint32_t begin = col.offsets[row];
  return InlineSpan{col.words + begin, col.masses + begin,
                    col.offsets[row + 1] - begin};
}

/// Applies the rule's evidence-facing post-processing to the raw
/// conjunctive product `terms` (sorted by word, no empty-set entry) with
/// conflict mass `kappa` — the exact sequence Combine +
/// CombineEvidenceTrusted performs on the row store: Dempster checks
/// kappa then renormalizes, Yager transfers kappa to the full frame, TBM
/// drops the empty-set mass and renormalizes for the evidence wrapper.
/// Returns false on total conflict (terms are then meaningless).
bool FinishEvidenceRule(CombinationRule rule, size_t universe, double kappa,
                        std::vector<std::pair<uint64_t, double>>* terms) {
  switch (rule) {
    case CombinationRule::kDempster:
    case CombinationRule::kTBM: {
      // TBM differs from Dempster only in *when* it renormalizes: the
      // evidence-facing wrapper drops the empty-set (conflict) mass and
      // normalizes whenever kappa > 0, which is Normalize() over the
      // same term list — but without Dempster's hard kappa == 1 failure
      // threshold check first.
      if (rule == CombinationRule::kDempster &&
          kappa >= 1.0 - kMassEpsilon) {
        return false;
      }
      if (rule == CombinationRule::kTBM && kappa <= 0.0) return true;
      double total = 0.0;
      for (const auto& [word, mass] : *terms) total += mass;
      if (total <= kMassEpsilon) return false;
      for (auto& [word, mass] : *terms) mass /= total;
      return true;
    }
    case CombinationRule::kYager: {
      if (kappa > 0.0) {
        const uint64_t full = universe >= 64
                                  ? ~uint64_t{0}
                                  : (uint64_t{1} << universe) - 1;
        if (!terms->empty() && terms->back().first == full) {
          terms->back().second += kappa;
        } else {
          terms->emplace_back(full, kappa);
        }
      }
      return true;
    }
    case CombinationRule::kMixing:
      return true;  // handled before the conjunctive product
  }
  return true;
}

void AppendResult(const std::vector<std::pair<uint64_t, double>>& terms,
                  BatchCombineResult* out) {
  for (const auto& [word, mass] : terms) {
    out->words.push_back(word);
    out->masses.push_back(mass);
  }
  out->offsets.push_back(static_cast<uint32_t>(out->words.size()));
}

/// Per-call state for the fast-Möbius pre-pass: packed result slices for
/// every FMT-routed pair, four lanes at a time.
struct FmtSidecar {
  std::vector<uint32_t> slot;      // pair index -> slice index or kNoFmtSlot
  std::vector<uint64_t> words;     // concatenated result slices
  std::vector<double> masses;
  std::vector<uint32_t> offsets;   // slice boundaries (slices + 1)
  std::vector<double> kappa;       // per slice
};

/// Runs `group_size` (1..4) FMT-eligible pairs through the 4-lane
/// lattice, gathering each lane's result into the sidecar. Lane
/// arithmetic is the exact FmtInlineSpans sequence, so a pair produces
/// the same bits whether it lands in a full group, a partial group or
/// the single-lattice row path.
void FmtGroup4(size_t universe, CombinationRule rule,
               const FocalSpanColumn& a, const uint32_t* a_rows,
               const FocalSpanColumn& b, const uint32_t* b_rows,
               const uint32_t* pair_indices, size_t group_size,
               KernelScratch& s, FmtSidecar* sidecar) {
  (void)rule;
  const size_t lattice_n = size_t{1} << universe;
  const size_t total = 4 * lattice_n;
  s.lattice4.assign(total, 0.0);
  s.operand4.assign(total, 0.0);
  for (size_t lane = 0; lane < group_size; ++lane) {
    const uint32_t p = pair_indices[lane];
    const uint32_t ar = a_rows != nullptr ? a_rows[p] : p;
    const uint32_t br = b_rows != nullptr ? b_rows[p] : p;
    for (uint32_t k = a.offsets[ar]; k < a.offsets[ar + 1]; ++k) {
      s.lattice4[a.words[k] * 4 + lane] += a.masses[k];
    }
    for (uint32_t k = b.offsets[br]; k < b.offsets[br + 1]; ++k) {
      s.operand4[b.words[k] * 4 + lane] += b.masses[k];
    }
  }
  const auto& fns = Lattice4();
  fns.zeta(s.lattice4.data(), universe);
  fns.zeta(s.operand4.data(), universe);
  fns.mul(s.lattice4.data(), s.operand4.data(), total);
  fns.moebius(s.lattice4.data(), universe);

  for (size_t lane = 0; lane < group_size; ++lane) {
    const uint32_t p = pair_indices[lane];
    const double* q = s.lattice4.data() + lane;
    double remaining = 0.0;
    for (size_t w = 1; w < lattice_n; ++w) remaining += q[w * 4];
    const double floor = kFmtMassFloor * std::min(1.0, std::fabs(remaining));
    for (size_t w = 1; w < lattice_n; ++w) {
      const double mass = q[w * 4];
      if (mass > floor) {
        sidecar->words.push_back(w);
        sidecar->masses.push_back(mass);
      }
    }
    sidecar->slot[p] = static_cast<uint32_t>(sidecar->offsets.size() - 1);
    sidecar->offsets.push_back(static_cast<uint32_t>(sidecar->words.size()));
    sidecar->kappa.push_back(q[0] > kFmtMassFloor ? q[0] : 0.0);
  }
}

}  // namespace

void CombineColumnBatch(size_t universe, CombinationRule rule,
                        const FocalSpanColumn& a, const uint32_t* a_rows,
                        const FocalSpanColumn& b, const uint32_t* b_rows,
                        size_t n, BatchCombineResult* out) {
  auto& s = ds_internal::Scratch();
  out->words.clear();
  out->masses.clear();
  out->offsets.assign(1, 0);
  out->total_conflict.assign(n, 0);

  // Pre-pass: run the FMT-routed pairs four lanes at a time. The cost
  // model is evaluated per pair exactly as the row store's kAuto does,
  // so the backend choice — and therefore the result bits — match.
  FmtSidecar sidecar;
  if (rule != CombinationRule::kMixing) {
    sidecar.slot.assign(n, kNoFmtSlot);
    sidecar.offsets.assign(1, 0);
    std::vector<uint32_t> fmt_pairs;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t ar = a_rows != nullptr ? a_rows[i] : i;
      const uint32_t br = b_rows != nullptr ? b_rows[i] : i;
      const size_t terms =
          static_cast<size_t>(a.offsets[ar + 1] - a.offsets[ar]) *
          (b.offsets[br + 1] - b.offsets[br]);
      if (ds_internal::FmtProfitable(universe, terms)) {
        fmt_pairs.push_back(static_cast<uint32_t>(i));
      }
    }
    for (size_t g = 0; g < fmt_pairs.size(); g += 4) {
      const size_t group = std::min<size_t>(4, fmt_pairs.size() - g);
      FmtGroup4(universe, rule, a, a_rows, b, b_rows, fmt_pairs.data() + g,
                group, s, &sidecar);
    }
  }

  // Main pass, in pair order: pairwise pairs are combined here through
  // the shared span kernel; FMT pairs copy their sidecar slice. Both
  // then take the identical rule-finishing sequence.
  for (size_t i = 0; i < n; ++i) {
    const uint32_t ar = a_rows != nullptr ? a_rows[i] : i;
    const uint32_t br = b_rows != nullptr ? b_rows[i] : i;
    const InlineSpan sa = SpanOfRow(a, ar);
    const InlineSpan sb = SpanOfRow(b, br);

    if (rule == CombinationRule::kMixing) {
      // Averaging: both focal lists at half weight, merged on build —
      // the row store's CombineMixing via AssignUnmerged, span-wise.
      s.words.clear();
      for (size_t k = 0; k < sa.size; ++k) {
        s.words.emplace_back(sa.words[k], 0.5 * sa.masses[k]);
      }
      for (size_t k = 0; k < sb.size; ++k) {
        s.words.emplace_back(sb.words[k], 0.5 * sb.masses[k]);
      }
      ds_internal::SortAndMergeWords(&s.words);
      AppendResult(s.words, out);
      continue;
    }

    double kappa;
    const uint32_t slot = sidecar.slot[i];
    if (slot != kNoFmtSlot) {
      s.words.clear();
      for (uint32_t k = sidecar.offsets[slot]; k < sidecar.offsets[slot + 1];
           ++k) {
        s.words.emplace_back(sidecar.words[k], sidecar.masses[k]);
      }
      kappa = sidecar.kappa[slot];
    } else {
      kappa = ds_internal::PairwiseInlineSpans(universe, sa, sb, s);
    }
    if (FinishEvidenceRule(rule, universe, kappa, &s.words)) {
      AppendResult(s.words, out);
    } else {
      out->total_conflict[i] = 1;
      out->offsets.push_back(static_cast<uint32_t>(out->words.size()));
    }
  }
}

}  // namespace evident
