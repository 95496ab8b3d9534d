#ifndef EVIDENT_DS_COMBINATION_INTERNAL_H_
#define EVIDENT_DS_COMBINATION_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ds/combination.h"
#include "ds/mass_function.h"
#include "ds/value_set.h"

/// \file
/// Internals shared by the pairwise/fast-Möbius combination kernels
/// (combination.cc), the columnar batch kernel (combination_batch.cc)
/// and the AVX2 lattice translation unit (combination_avx2.cc).
///
/// Everything here operates on *inline spans*: a mass function over a
/// frame of at most 64 values laid out as parallel (word, mass) arrays,
/// the representation the ColumnStore packs and the row-store bridges
/// gather into scratch. The row-store kernels and the batch kernel call
/// the same span functions, so per-pair and batch combination produce
/// bit-identical results by construction rather than by parallel
/// implementations that merely agree.

namespace evident {
namespace ds_internal {

/// A borrowed view of one packed mass function over an inline frame.
struct InlineSpan {
  const uint64_t* words;
  const double* masses;
  size_t size;
};

/// Open-addressing accumulator keyed by inline ValueSet words; the flat
/// replacement for an unordered_map<ValueSet, double> in the pairwise
/// kernel over frames too wide for the lattice accumulator, when the
/// number of product terms is large. Word 0 (the empty set) never enters
/// the table — empty intersections are the conflict mass — so it doubles
/// as the free-slot sentinel.
class WordAccumulator {
 public:
  void Reset(size_t expected_terms) {
    // Distinct intersections are usually far fewer than product terms;
    // start modest and grow at 0.75 load.
    size_t cap = 64;
    while (cap < 2 * expected_terms && cap < 8192) cap <<= 1;
    if (keys_.size() != cap) {
      keys_.assign(cap, 0);
      vals_.assign(cap, 0.0);
    } else {
      std::fill(keys_.begin(), keys_.end(), 0);
    }
    mask_ = cap - 1;
    count_ = 0;
  }

  void Add(uint64_t key, double value) {
    size_t i = Mix(key) & mask_;
    while (true) {
      if (keys_[i] == key) {
        vals_[i] += value;
        return;
      }
      if (keys_[i] == 0) {
        keys_[i] = key;
        vals_[i] = value;
        if (++count_ * 4 > 3 * (mask_ + 1)) Grow();
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Appends the stored (word, mass) pairs to `out`, unsorted.
  void Drain(std::vector<std::pair<uint64_t, double>>* out) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0) out->emplace_back(keys_[i], vals_[i]);
    }
  }

 private:
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 29;
    return x;
  }

  void Grow() {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<double> old_vals = std::move(vals_);
    const size_t cap = (mask_ + 1) * 2;
    keys_.assign(cap, 0);
    vals_.assign(cap, 0.0);
    mask_ = cap - 1;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == 0) continue;
      size_t j = Mix(old_keys[i]) & mask_;
      while (keys_[j] != 0) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<double> vals_;
  size_t mask_ = 0;
  size_t count_ = 0;
};

/// Dense accumulator the pairwise kernel merges product terms into for
/// frames of at most kFmtMaxUniverse values: one slot per subset word,
/// plus a two-level touched bitmap (bit w of `touched` marks slot w, bit
/// k of `top` marks a non-zero `touched[k]`). Every slot and bit is zero
/// between calls: the ascending bitmap scan that reads the result clears
/// what it visits.
struct LatticeAccumulator {
  static constexpr size_t kSlots = size_t{1} << kFmtMaxUniverse;
  std::vector<double> acc = std::vector<double>(kSlots, 0.0);
  uint64_t touched[kSlots / 64] = {};
  uint64_t top[kSlots / 64 / 64] = {};
};

/// Buffers reused across combinations on the same thread, so per-tuple
/// (and per-batch) combination in the relational operators does not
/// allocate once the buffers have warmed up. Each thread has its own
/// (Scratch() is thread-local), so morsel workers never share one.
struct KernelScratch {
  MassFunction::FocalVector entries;  // multi-word product terms
  std::vector<std::pair<uint64_t, double>> words;  // inline product terms
  LatticeAccumulator lattice_terms;   // inline terms, frames <= 14 values
  WordAccumulator accumulator;        // inline terms, wider frames
  std::unordered_map<ValueSet, double, ValueSetHash>
      set_accumulator;                // multi-word terms, hash-merged
  std::vector<double> lattice;        // dense 2^n accumulator (commonality)
  std::vector<double> operand;        // dense 2^n operand being folded in
  // Span gather buffers for the row-store bridge (focal vectors are
  // arrays of (ValueSet, mass) structs, not packed words).
  std::vector<uint64_t> gather_words_a, gather_words_b;
  std::vector<double> gather_masses_a, gather_masses_b;
  // 4-lane interleaved lattices for the batch kernel: lane l of subset s
  // lives at index s * 4 + l.
  std::vector<double> lattice4;
  std::vector<double> operand4;
};

KernelScratch& Scratch();

/// Frames wider than kFmtMaxUniverse values merge products of up to
/// this many terms by an insertion sort of the raw term list, and larger
/// ones through the flat hash.
inline constexpr size_t kHashMergeMinTerms = 16;

/// Sorts raw (word, mass) terms and folds duplicate words in place.
void SortAndMergeWords(std::vector<std::pair<uint64_t, double>>* words);

/// Upward (superset) zeta transform in place: q[A] := sum_{B ⊇ A} q[B].
/// Applied to masses this yields the commonality function Q.
void ZetaSuperset(double* q, size_t universe);

/// Inverse of ZetaSuperset (Möbius inversion): recovers masses from a
/// commonality function.
void MoebiusSuperset(double* q, size_t universe);

/// True when the dense fast-Möbius kernel is expected to beat the
/// pairwise kernel: the frame must fit the lattice and the pairwise
/// focal-product work must exceed the (3n+2)·2^n transform work. The
/// constant 16 weighs a pairwise term (two loads, a multiply, an AND and
/// a scatter-add into the lattice accumulator) against a transform add.
/// It was fitted when the merge was a branchy sort insert and is kept
/// unchanged on purpose: every pair keeps its backend, so fast-Möbius
/// results stay bit-identical.
bool FmtProfitable(size_t universe, size_t pairwise_terms);

/// Pairwise conjunctive product of two inline spans over a frame of
/// `universe` values. The merged result — sorted by word, unique, free
/// of zero words and of zero masses — is left in `s.words`; the return
/// value is kappa, the mass on empty intersections. Terms are generated
/// i-major, j-minor, and the products landing on one word (kappa's
/// included) are summed in exactly that order on every path, so the
/// result does not depend on how the merge is done. Frames of at most
/// kFmtMaxUniverse values merge branch-free through the lattice
/// accumulator; wider ones by insertion sort (small products) or the
/// flat hash.
double PairwiseInlineSpans(size_t universe, const InlineSpan& a,
                           const InlineSpan& b, KernelScratch& s);

/// Fast-Möbius conjunctive product of two inline spans over a frame of
/// `universe` <= kFmtMaxUniverse values: masses → commonalities (zeta),
/// pointwise product, commonalities → masses (Möbius). The result is
/// left in `s.words` (ascending words); returns kappa. The per-subset
/// arithmetic is the exact sequence the 4-lane batch kernel performs per
/// lane, so single and batched transforms agree bitwise.
double FmtInlineSpans(size_t universe, const InlineSpan& a,
                      const InlineSpan& b, KernelScratch& s);

/// The 4-lane interleaved lattice primitives the batch kernel dispatches
/// at runtime: `count` doubles (= 4 * 2^universe) laid out lane-major as
/// documented on KernelScratch::lattice4. The scalar implementations and
/// the AVX2 implementations perform the identical per-lane operation
/// sequence, so dispatch never changes results bitwise.
struct Lattice4Fns {
  void (*zeta)(double* q, size_t universe);
  void (*moebius)(double* q, size_t universe);
  void (*mul)(double* acc, const double* op, size_t count);
};

/// The AVX2 implementation, or nullptr when the build lacks
/// EVIDENT_HAVE_AVX2 or the CPU lacks AVX2 (runtime CPUID guard).
/// Defined in combination_avx2.cc.
const Lattice4Fns* GetAvx2Lattice4();

/// The active 4-lane implementation (honouring SetBatchSimdEnabled).
const Lattice4Fns& Lattice4();

}  // namespace ds_internal
}  // namespace evident

#endif  // EVIDENT_DS_COMBINATION_INTERNAL_H_
